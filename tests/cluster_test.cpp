// Tests for predtop::cluster: the framed wire codec (round-trip properties,
// truncation/bit-flip fuzz rejected by the CRC footer, hostile-length
// hardening), the consistent-hash ring, the socket transport and its fault
// injection sites, worker startup fail-fast semantics, and the end-to-end
// acceptance criteria — a router over >= 2 shard workers serving the fig10
// plan search with a plan equal to the direct in-process ServingOracle
// result, including with one worker killed mid-run.
//
// This binary doubles as the worker executable of its own multi-process
// tests: main() intercepts --cluster-worker and re-enters WorkerMain, so a
// test can fork + exec /proc/self/exe to get a genuinely separate worker
// process (and SIGKILL it for the failover drill).

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "cluster/local.h"
#include "cluster/oracle.h"
#include "cluster/ring.h"
#include "cluster/router.h"
#include "cluster/supervisor.h"
#include "cluster/transport.h"
#include "cluster/wire.h"
#include "cluster/worker.h"
#include "core/plan_search.h"
#include "core/stage_encodings.h"
#include "fault/injector.h"
#include "graph/fingerprint.h"
#include "ir/resnet.h"
#include "ir/stages.h"
#include "ir/to_dag.h"
#include "serve/fallback.h"
#include "serve/oracle.h"
#include "serve/service.h"
#include "util/timer.h"

extern char** environ;

namespace predtop::cluster {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Turns injection off again even when an assertion throws mid-test.
struct InjectorGuard {
  explicit InjectorGuard(const std::string& spec, std::uint64_t seed = 1) {
    fault::Injector::Global().Configure(spec, seed);
  }
  ~InjectorGuard() { fault::Injector::Global().Disable(); }
};

ir::Gpt3Config TinyGptConfig() {
  ir::Gpt3Config config;
  config.seq_len = 64;
  config.hidden = 64;
  config.num_layers = 4;
  config.num_heads = 4;
  config.vocab = 512;
  config.microbatch = 2;
  return config;
}

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("predtop_cluster_test_" + std::to_string(::getpid()) + "_" + name))
      .string();
}

// ---- wire codec ----

PredictRequest SampleRequest() {
  PredictRequest request;
  request.key = {"gpt3", "platform1", sim::Mesh{1, 2}, parallel::ParallelConfig{2, 1, 1}};
  request.queries = {{{0, 2}, sim::Mesh{1, 2}}, {{2, 4}, sim::Mesh{1, 1}}};
  return request;
}

TEST(WireCodec, FrameRoundTripAllTypes) {
  for (const MessageType type :
       {MessageType::kError, MessageType::kPredictRequest, MessageType::kPredictResponse,
        MessageType::kHealthRequest, MessageType::kHealthResponse, MessageType::kStatsRequest,
        MessageType::kStatsResponse, MessageType::kShutdownRequest,
        MessageType::kShutdownResponse}) {
    const Frame frame{type, 0xfeedface12345678ull, "payload for " +
                                                       std::string(MessageTypeName(type))};
    const std::string bytes = EncodeFrame(frame);
    const auto [decoded, consumed] = DecodeFrame(bytes);
    EXPECT_EQ(consumed, bytes.size());
    EXPECT_EQ(decoded.type, frame.type);
    EXPECT_EQ(decoded.request_id, frame.request_id);
    EXPECT_EQ(decoded.payload, frame.payload);
  }
}

TEST(WireCodec, PredictRequestRoundTripProperty) {
  std::mt19937_64 rng(0xc1a5733d);
  for (int iteration = 0; iteration < 50; ++iteration) {
    PredictRequest request;
    const std::size_t name_len = rng() % 24;
    for (std::size_t i = 0; i < name_len; ++i) {
      request.key.benchmark.push_back(static_cast<char>('a' + rng() % 26));
    }
    request.key.platform = "platform" + std::to_string(rng() % 4);
    request.key.mesh = {static_cast<std::int32_t>(rng() % 16 + 1),
                        static_cast<std::int32_t>(rng() % 16 + 1)};
    request.key.config = {static_cast<std::int32_t>(rng() % 8 + 1),
                          static_cast<std::int32_t>(rng() % 8 + 1),
                          static_cast<std::int32_t>(rng() % 8 + 1)};
    const std::size_t num_queries = rng() % 40;
    for (std::size_t q = 0; q < num_queries; ++q) {
      const auto first = static_cast<std::int32_t>(rng() % 30);
      request.queries.push_back(
          {{first, first + static_cast<std::int32_t>(rng() % 6 + 1)},
           {static_cast<std::int32_t>(rng() % 8 + 1),
            static_cast<std::int32_t>(rng() % 8 + 1)}});
    }
    const PredictRequest decoded = DecodePredictRequest(EncodePredictRequest(request));
    EXPECT_EQ(decoded.key, request.key);
    ASSERT_EQ(decoded.queries.size(), request.queries.size());
    for (std::size_t q = 0; q < num_queries; ++q) {
      EXPECT_EQ(decoded.queries[q].slice.first_layer, request.queries[q].slice.first_layer);
      EXPECT_EQ(decoded.queries[q].slice.last_layer, request.queries[q].slice.last_layer);
      EXPECT_EQ(decoded.queries[q].mesh, request.queries[q].mesh);
    }
  }
}

TEST(WireCodec, PredictResponseRoundTripIsBitIdentical) {
  PredictResponse response;
  response.results = {
      {1.5e-3, {2, 1, 1}, false},
      {kInf, {}, true},
      {-kInf, {1, 2, 1}, false},
      {std::numeric_limits<double>::quiet_NaN(), {}, true},
      {std::numeric_limits<double>::denorm_min(), {1, 1, 2}, false},
      {-0.0, {}, false},
  };
  const PredictResponse decoded = DecodePredictResponse(EncodePredictResponse(response));
  ASSERT_EQ(decoded.results.size(), response.results.size());
  for (std::size_t i = 0; i < response.results.size(); ++i) {
    // Compare the bit patterns, not the values: NaN != NaN, and the whole
    // point of shipping IEEE-754 bits is that the wire changes nothing.
    EXPECT_EQ(std::memcmp(&decoded.results[i].latency_s, &response.results[i].latency_s,
                          sizeof(double)),
              0);
    EXPECT_EQ(decoded.results[i].config, response.results[i].config);
    EXPECT_EQ(decoded.results[i].degraded, response.results[i].degraded);
  }
}

TEST(WireCodec, HealthStatsAndErrorBodiesRoundTrip) {
  const HealthBody health{true, 3, "gpt3 worker at unix:/tmp/w0.sock"};
  const HealthBody health2 = DecodeHealthBody(EncodeHealthBody(health));
  EXPECT_EQ(health2.ok, health.ok);
  EXPECT_EQ(health2.num_models, health.num_models);
  EXPECT_EQ(health2.detail, health.detail);

  StatsBody stats;
  stats.requests = 7;
  stats.queries = 100;
  stats.forwards = 42;
  stats.coalesced = 13;
  stats.batches = 5;
  stats.batched_queries = 90;
  stats.cache_hits = 58;
  stats.cache_misses = 42;
  stats.program_cache_hits = 21;
  stats.program_cache_misses = 4;
  const StatsBody stats2 = DecodeStatsBody(EncodeStatsBody(stats));
  EXPECT_EQ(stats2.requests, stats.requests);
  EXPECT_EQ(stats2.queries, stats.queries);
  EXPECT_EQ(stats2.forwards, stats.forwards);
  EXPECT_EQ(stats2.coalesced, stats.coalesced);
  EXPECT_EQ(stats2.batches, stats.batches);
  EXPECT_EQ(stats2.batched_queries, stats.batched_queries);
  EXPECT_EQ(stats2.cache_hits, stats.cache_hits);
  EXPECT_EQ(stats2.cache_misses, stats.cache_misses);
  EXPECT_EQ(stats2.program_cache_hits, stats.program_cache_hits);
  EXPECT_EQ(stats2.program_cache_misses, stats.program_cache_misses);
  // A body with two more trailing counters (the layout of peers that still
  // send the deleted batch-executor counters) is refused, typed.
  EXPECT_THROW((void)DecodeStatsBody(EncodeStatsBody(stats) + std::string(16, '\0')),
               fault::CorruptionError);

  const ErrorBody error{fault::StatusCode::kNotFound, "no model registered"};
  const ErrorBody error2 = DecodeErrorBody(EncodeErrorBody(error));
  EXPECT_EQ(error2.code, error.code);
  EXPECT_EQ(error2.message, error.message);
  EXPECT_EQ(error2.ToStatus().code(), fault::StatusCode::kNotFound);
}

TEST(WireCodec, TruncatedFramesRejected) {
  const Frame frame{MessageType::kPredictRequest, 42,
                    EncodePredictRequest(SampleRequest())};
  const std::string bytes = EncodeFrame(frame);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW((void)DecodeFrame(std::string_view(bytes.data(), len)),
                 fault::CorruptionError)
        << "prefix of " << len << " bytes decoded";
  }
}

TEST(WireCodec, EveryBitFlipRejected) {
  const Frame frame{MessageType::kPredictRequest, 7, EncodePredictRequest(SampleRequest())};
  const std::string bytes = EncodeFrame(frame);
  for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = bytes;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      // Header flips fail their own validation (magic/version/type/length);
      // everything else fails the CRC footer. Either way: a typed
      // CorruptionError, never a silently different frame.
      EXPECT_THROW((void)DecodeFrame(corrupt), fault::CorruptionError)
          << "bit " << bit << " of byte " << byte << " flipped undetected";
    }
  }
}

TEST(WireCodec, HostileLengthRejectedBeforeAllocation) {
  std::string bytes = EncodeFrame({MessageType::kHealthRequest, 1, {}});
  const std::uint64_t hostile = 1ull << 60;  // would be a 1 EiB allocation
  std::memcpy(bytes.data() + 16, &hostile, sizeof hostile);
  try {
    (void)DecodeFrame(bytes);
    FAIL() << "hostile length accepted";
  } catch (const fault::CorruptionError& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds"), std::string::npos) << e.what();
  }
  EXPECT_THROW((void)DecodeFrameHeader(std::string_view(bytes.data(), kFrameHeaderBytes)),
               fault::CorruptionError);
}

TEST(WireCodec, HostileQueryCountRejectedBeforeAllocation) {
  PredictRequest request = SampleRequest();
  request.queries.clear();
  std::string payload = EncodePredictRequest(request);
  // The (empty) query count is the last u32; claim a billion queries with
  // zero bytes behind them.
  const std::uint32_t hostile = 1u << 30;
  std::memcpy(payload.data() + payload.size() - sizeof hostile, &hostile, sizeof hostile);
  try {
    (void)DecodePredictRequest(payload);
    FAIL() << "hostile count accepted";
  } catch (const fault::CorruptionError& e) {
    EXPECT_NE(std::string(e.what()).find("count"), std::string::npos) << e.what();
  }
}

TEST(WireCodec, TrailingBytesRejected) {
  std::string payload = EncodePredictResponse({{{1.0, {}, false}}});
  payload.push_back('\0');
  EXPECT_THROW((void)DecodePredictResponse(payload), fault::CorruptionError);
  std::string request = EncodePredictRequest(SampleRequest());
  request.append("xx");
  EXPECT_THROW((void)DecodePredictRequest(request), fault::CorruptionError);
}

TEST(WireCodec, DeadlineFreeFramesStayLegacyVersion1) {
  // deadline_us == 0 must encode the exact legacy v1 frame: a pre-deadline
  // decoder on the other end of the wire keeps working unmodified.
  const Frame frame{MessageType::kPredictRequest, 7, "payload"};
  const std::string bytes = EncodeFrame(frame);
  EXPECT_EQ(bytes.size(), kFrameHeaderBytes + 7 + kFrameFooterBytes);
  const FrameHeader header =
      DecodeFrameHeader(std::string_view(bytes.data(), kFrameHeaderBytes));
  EXPECT_EQ(header.version, kWireVersion);
  EXPECT_EQ(header.ExtraHeaderBytes(), 0u);
  EXPECT_EQ(DecodeFrame(bytes).first.deadline_us, 0u);
}

TEST(WireCodec, DeadlineRoundTripsInVersion2Frames) {
  const Frame frame{MessageType::kPredictRequest, 7,
                    EncodePredictRequest(SampleRequest()), 0x0123456789abcdefull};
  const std::string bytes = EncodeFrame(frame);
  const FrameHeader header =
      DecodeFrameHeader(std::string_view(bytes.data(), kFrameHeaderBytes));
  EXPECT_EQ(header.version, kWireVersionDeadline);
  EXPECT_EQ(header.ExtraHeaderBytes(), kFrameDeadlineBytes);
  const auto [decoded, consumed] = DecodeFrame(bytes);
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(decoded.deadline_us, frame.deadline_us);
  EXPECT_EQ(decoded.payload, frame.payload);
  EXPECT_EQ(decoded.request_id, frame.request_id);
}

TEST(WireCodec, EveryBitFlipOfADeadlineFrameRejected) {
  // The CRC footer covers the v2 deadline bytes too: no flip anywhere in the
  // extended header survives.
  const Frame frame{MessageType::kPredictRequest, 7,
                    EncodePredictRequest(SampleRequest()), 123456789ull};
  const std::string bytes = EncodeFrame(frame);
  for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = bytes;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      EXPECT_THROW((void)DecodeFrame(corrupt), fault::CorruptionError)
          << "bit " << bit << " of byte " << byte << " flipped undetected";
    }
  }
}

TEST(WireCodec, StatsBodyCarriesShedCounters) {
  StatsBody stats;
  stats.requests = 1;
  stats.shed_expired = 11;
  stats.shed_overload = 22;
  stats.late_completions = 33;
  const StatsBody decoded = DecodeStatsBody(EncodeStatsBody(stats));
  EXPECT_EQ(decoded.shed_expired, 11u);
  EXPECT_EQ(decoded.shed_overload, 22u);
  EXPECT_EQ(decoded.late_completions, 33u);
}

TEST(WireCodec, OverloadedErrorBodyRoundTrips) {
  const ErrorBody error{fault::StatusCode::kOverloaded, "admission shed"};
  const ErrorBody decoded = DecodeErrorBody(EncodeErrorBody(error));
  EXPECT_EQ(decoded.code, fault::StatusCode::kOverloaded);
  EXPECT_EQ(decoded.ToStatus().code(), fault::StatusCode::kOverloaded);
}

// ---- consistent-hash ring ----

TEST(Ring, RoutesAreDeterministicDistinctAndOwnerFirst) {
  const HashRing ring(5);
  std::mt19937_64 rng(99);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t fp = rng();
    const std::vector<std::size_t> route = ring.Route(fp, 3);
    ASSERT_EQ(route.size(), 3u);
    EXPECT_EQ(route, ring.Route(fp, 3));  // deterministic
    EXPECT_EQ(route[0], ring.Owner(fp));  // owner first
    const std::set<std::size_t> distinct(route.begin(), route.end());
    EXPECT_EQ(distinct.size(), route.size());
    for (const std::size_t worker : route) EXPECT_LT(worker, 5u);
  }
}

TEST(Ring, ReplicasCappedAtClusterSize) {
  const HashRing ring(2);
  const std::vector<std::size_t> route = ring.Route(123456789, 5);
  ASSERT_EQ(route.size(), 2u);
  EXPECT_NE(route[0], route[1]);
}

TEST(Ring, OwnershipIsReasonablyBalanced) {
  const std::size_t workers = 4;
  const HashRing ring(workers);
  std::vector<std::size_t> owned(workers, 0);
  std::mt19937_64 rng(7);
  const std::size_t samples = 20000;
  for (std::size_t i = 0; i < samples; ++i) ++owned[ring.Owner(rng())];
  for (std::size_t w = 0; w < workers; ++w) {
    // Perfect balance would be 25% each; 64 vnodes keeps every shard within
    // a loose band of it.
    EXPECT_GT(owned[w], samples / 10) << "worker " << w << " starved";
    EXPECT_LT(owned[w], samples / 2) << "worker " << w << " overloaded";
  }
}

TEST(Ring, AddingAWorkerRemapsOnlyAMinorityOfKeys) {
  const HashRing before(4);
  const HashRing after(5);
  std::mt19937_64 rng(13);
  const std::size_t samples = 10000;
  std::size_t moved = 0;
  for (std::size_t i = 0; i < samples; ++i) {
    const std::uint64_t fp = rng();
    if (before.Owner(fp) != after.Owner(fp)) ++moved;
  }
  // Consistent hashing moves ~1/5 of the space to the new worker; naive
  // modulo hashing would move ~4/5.
  EXPECT_LT(moved, samples / 2);
  EXPECT_GT(moved, 0u);
}

// ---- transport ----

TEST(Transport, EndpointParseAndToString) {
  const Endpoint unix_ep = Endpoint::Parse("unix:/tmp/predtop.sock");
  EXPECT_EQ(unix_ep.kind, Endpoint::Kind::kUnix);
  EXPECT_EQ(unix_ep.path, "/tmp/predtop.sock");
  EXPECT_EQ(unix_ep.ToString(), "unix:/tmp/predtop.sock");

  const Endpoint tcp_ep = Endpoint::Parse("tcp:127.0.0.1:9100");
  EXPECT_EQ(tcp_ep.kind, Endpoint::Kind::kTcp);
  EXPECT_EQ(tcp_ep.host, "127.0.0.1");
  EXPECT_EQ(tcp_ep.port, 9100);
  EXPECT_EQ(tcp_ep.ToString(), "tcp:127.0.0.1:9100");

  EXPECT_THROW((void)Endpoint::Parse("http://nope"), std::invalid_argument);
  EXPECT_THROW((void)Endpoint::Parse("tcp:no-port"), std::invalid_argument);
  EXPECT_THROW((void)Endpoint::Parse(""), std::invalid_argument);
}

/// Echo server: accepts one connection, echoes frames with request_id + 1
/// until the peer hangs up.
class EchoServer {
 public:
  explicit EchoServer(const Endpoint& endpoint) : listener_(endpoint) {
    thread_ = std::thread([this] {
      while (true) {  // serve connections sequentially until Close()
        Socket client = listener_.Accept();
        if (!client.Valid()) return;
        while (true) {
          Frame frame;
          try {
            frame = RecvFrame(client);
          } catch (const std::exception&) {
            break;  // peer hung up; accept the next connection
          }
          frame.request_id += 1;
          try {
            SendFrame(client, frame);
          } catch (const std::exception&) {
            break;
          }
        }
      }
    });
  }
  ~EchoServer() {
    listener_.Close();
    if (thread_.joinable()) thread_.join();
  }
  [[nodiscard]] const Endpoint& BoundEndpoint() const { return listener_.BoundEndpoint(); }

 private:
  Listener listener_;
  std::thread thread_;
};

TEST(Transport, UnixFrameRoundTrip) {
  const std::string path = TempPath("echo.sock");
  EchoServer server(Endpoint::Unix(path));
  Socket client = ConnectTo(server.BoundEndpoint());
  SendFrame(client, {MessageType::kHealthRequest, 41, "ping"});
  const Frame reply = RecvFrame(client, /*deadline_ms=*/2000.0);
  EXPECT_EQ(reply.request_id, 42u);
  EXPECT_EQ(reply.payload, "ping");
  std::remove(path.c_str());
}

TEST(Transport, TcpFrameRoundTripOnEphemeralPort) {
  EchoServer server(Endpoint::Tcp("127.0.0.1", 0));
  ASSERT_NE(server.BoundEndpoint().port, 0) << "port 0 not resolved";
  Socket client = ConnectTo(server.BoundEndpoint());
  SendFrame(client, {MessageType::kStatsRequest, 7, std::string(2048, 'x')});
  const Frame reply = RecvFrame(client, /*deadline_ms=*/2000.0);
  EXPECT_EQ(reply.request_id, 8u);
  EXPECT_EQ(reply.payload.size(), 2048u);
}

TEST(Transport, RecvDeadlineExceededIsTyped) {
  const std::string path = TempPath("deadline.sock");
  Listener listener(Endpoint::Unix(path));
  Socket client = ConnectTo(listener.BoundEndpoint());
  Socket served = listener.Accept(1000.0);
  ASSERT_TRUE(served.Valid());
  // Nobody ever sends: the read must give up on its own.
  try {
    (void)RecvFrame(client, /*deadline_ms=*/60.0);
    FAIL() << "deadline did not fire";
  } catch (const fault::FaultError& e) {
    EXPECT_EQ(e.code(), fault::StatusCode::kDeadlineExceeded);
  }
  listener.Close();
  std::remove(path.c_str());
}

TEST(Transport, NetDropInjectionKillsTheConnection) {
  const std::string path = TempPath("drop.sock");
  EchoServer server(Endpoint::Unix(path));
  Socket client = ConnectTo(server.BoundEndpoint());
  {
    InjectorGuard guard("net_drop:1");
    EXPECT_THROW(SendFrame(client, {MessageType::kHealthRequest, 1, {}}), fault::IoError);
    EXPECT_FALSE(client.Valid()) << "net_drop must close the socket";
  }
  // With injection off a fresh connection works again.
  Socket again = ConnectTo(server.BoundEndpoint());
  SendFrame(again, {MessageType::kHealthRequest, 1, {}});
  EXPECT_EQ(RecvFrame(again, 2000.0).request_id, 2u);
  std::remove(path.c_str());
}

TEST(Transport, NetDelayInjectionDelaysFrames) {
  const std::string path = TempPath("delay.sock");
  EchoServer server(Endpoint::Unix(path));
  Socket client = ConnectTo(server.BoundEndpoint());
  InjectorGuard guard("net_delay_ms:40");
  const auto start = std::chrono::steady_clock::now();
  SendFrame(client, {MessageType::kHealthRequest, 1, {}});
  (void)RecvFrame(client, 5000.0);
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();
  // Send and recv sides each sleep 40 ms (the echo server's sides do too);
  // assert well under the sum to stay robust on slow machines.
  EXPECT_GE(elapsed_ms, 60.0);
  std::remove(path.c_str());
}

// ---- worker startup fail-fast ----

TEST(WorkerStartup, MissingCheckpointFailsTypedAndQuarantines) {
  auto registry = std::make_shared<serve::ModelRegistry>();
  serve::ModelRegistry::RetryPolicy retry;
  retry.initial_backoff = std::chrono::milliseconds(0);

  WorkerOptions options;
  options.listen = Endpoint::Unix(TempPath("missing.sock"));
  options.benchmark = core::Gpt3Benchmark(TinyGptConfig());
  options.registry = registry;
  options.retry = retry;
  options.models.push_back(
      {serve::ModelKey{"gpt3", "platform1", sim::Mesh{1, 1}, {}}, TempPath("no_such.ptck")});

  Worker worker(std::move(options));
  const fault::Status status = worker.Init();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), fault::StatusCode::kIoError) << status.ToString();

  // The registry quarantined the path: a second worker sharing it is
  // refused without re-reading the file.
  WorkerOptions second;
  second.listen = Endpoint::Unix(TempPath("missing2.sock"));
  second.benchmark = core::Gpt3Benchmark(TinyGptConfig());
  second.registry = registry;
  second.retry = retry;
  second.models.push_back(
      {serve::ModelKey{"gpt3", "platform1", sim::Mesh{1, 1}, {}}, TempPath("no_such.ptck")});
  Worker worker2(std::move(second));
  const fault::Status quarantined = worker2.Init();
  ASSERT_FALSE(quarantined.ok());
  EXPECT_EQ(quarantined.code(), fault::StatusCode::kUnavailable) << quarantined.ToString();
}

TEST(WorkerStartup, CorruptCheckpointFailsTyped) {
  const std::string path = TempPath("corrupt.ptck");
  {
    std::ofstream out(path, std::ios::binary);
    out << "PTCKgarbage-that-is-not-a-checkpoint";
  }
  serve::ModelRegistry::RetryPolicy retry;
  retry.initial_backoff = std::chrono::milliseconds(0);
  WorkerOptions options;
  options.listen = Endpoint::Unix(TempPath("corrupt.sock"));
  options.benchmark = core::Gpt3Benchmark(TinyGptConfig());
  options.retry = retry;
  options.models.push_back(
      {serve::ModelKey{"gpt3", "platform1", sim::Mesh{1, 1}, {}}, path});
  Worker worker(std::move(options));
  const fault::Status status = worker.Init();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), fault::StatusCode::kCorruption) << status.ToString();
  std::remove(path.c_str());
}

TEST(WorkerStartup, NoModelsIsInvalidArgument) {
  WorkerOptions options;
  options.listen = Endpoint::Unix(TempPath("empty.sock"));
  options.benchmark = core::Gpt3Benchmark(TinyGptConfig());
  Worker worker(std::move(options));
  const fault::Status status = worker.Init();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), fault::StatusCode::kInvalidArgument);
}

// ---- multi-process helpers ----

/// fork + exec this test binary as a cluster worker (main() routes
/// --cluster-worker to WorkerMain). `extra_env` entries are appended to the
/// child's environment.
pid_t SpawnWorkerProcess(const std::vector<std::string>& args,
                         const std::vector<std::string>& extra_env = {}) {
  std::vector<std::string> argv_storage;
  argv_storage.emplace_back("/proc/self/exe");
  argv_storage.emplace_back("--cluster-worker");
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  argv.reserve(argv_storage.size() + 1);
  for (std::string& arg : argv_storage) argv.push_back(arg.data());
  argv.push_back(nullptr);

  std::vector<std::string> env_storage;
  for (char** e = environ; *e != nullptr; ++e) env_storage.emplace_back(*e);
  env_storage.insert(env_storage.end(), extra_env.begin(), extra_env.end());
  std::vector<char*> envp;
  envp.reserve(env_storage.size() + 1);
  for (std::string& e : env_storage) envp.push_back(e.data());
  envp.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execve("/proc/self/exe", argv.data(), envp.data());
    ::_exit(127);  // exec failed
  }
  return pid;
}

int WaitForExit(pid_t pid) {
  int wstatus = 0;
  ::waitpid(pid, &wstatus, 0);
  return wstatus;
}

TEST(WorkerStartup, ProcessExitCodeEncodesTheTypedStatus) {
  const pid_t pid = SpawnWorkerProcess({
      "--listen", "unix:" + TempPath("typed_exit.sock"),
      "--benchmark", "gpt3",
      "--model", "mesh=1x1,path=" + TempPath("definitely_missing.ptck"),
  });
  ASSERT_GT(pid, 0);
  const int wstatus = WaitForExit(pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  // WorkerMain maps a failed Init to 10 + StatusCode so a supervisor can
  // tell a corrupt checkpoint from a transient IO failure from outside.
  EXPECT_EQ(WEXITSTATUS(wstatus),
            10 + static_cast<int>(fault::StatusCode::kIoError));
}

// ---- end-to-end: trained predictors behind a real cluster ----

/// One trained serving stack shared by the end-to-end suites (training is
/// the slow part; everything downstream reuses it). Mirrors serve_test's
/// PlanSearch fixture so the cluster-vs-in-process comparison is apples to
/// apples.
struct TrainedStack {
  TrainedStack()
      : search(core::Gpt3Benchmark(TinyGptConfig()), sim::Platform1(), MakeConfig()),
        trained(search.TrainPredictors(core::PredictorKind::kDagTransformer)),
        registry(std::make_shared<serve::ModelRegistry>()),
        keys(serve::RegisterMeshPredictors(*registry, "gpt3", "platform1", search.Meshes(),
                                           trained)) {
    for (std::size_t m = 0; m < search.Meshes().size(); ++m) {
      const sim::Mesh mesh = search.Meshes()[m];
      const std::string path = TempPath("mesh_" + std::to_string(mesh.num_nodes) + "x" +
                                        std::to_string(mesh.gpus_per_node) + ".ptck");
      trained.per_mesh[m]->Save(path);
      ptck_paths.push_back(path);
    }
  }

  static core::PlanSearchConfig MakeConfig() {
    core::PlanSearchConfig config;
    config.num_microbatches = 4;
    config.sample_fraction = 0.6;
    config.max_span = 3;
    config.train.max_epochs = 20;
    config.train.patience = 20;
    config.train.batch_size = 4;
    config.predictor.dagt_dim = 16;
    config.predictor.dagt_layers = 2;
    config.predictor.dagt_heads = 2;
    return config;
  }

  /// Every (slice, mesh) cell of the inter-op DP table under max_span.
  [[nodiscard]] std::vector<parallel::StageQuery> FullTable() {
    std::vector<parallel::StageQuery> queries;
    const std::int32_t layers = search.Benchmark().num_layers;
    for (std::int32_t first = 0; first < layers; ++first) {
      for (std::int32_t last = first + 1;
           last <= layers && last - first <= search.EffectiveMaxSpan(); ++last) {
        for (const sim::Mesh mesh : search.Meshes()) {
          queries.push_back({{first, last}, mesh});
        }
      }
    }
    return queries;
  }

  [[nodiscard]] serve::StageEncoder Encoder() {
    return [this](ir::StageSlice s) -> const graph::EncodedGraph& {
      return search.EncodedFor(s);
    };
  }

  /// Ground truth: the trained per-mesh predictor called directly, exactly
  /// like serve_test's direct oracle.
  [[nodiscard]] parallel::StageLatencyResult Direct(ir::StageSlice slice, sim::Mesh mesh) {
    if (slice.NumLayers() > search.EffectiveMaxSpan()) return {kInf, {}};
    for (std::size_t m = 0; m < search.Meshes().size(); ++m) {
      if (search.Meshes()[m] == mesh) {
        return {trained.per_mesh[m]->PredictSeconds(search.EncodedFor(slice)), {}};
      }
    }
    return {kInf, {}};
  }

  core::PlanSearch search;
  core::TrainedMeshPredictors trained;
  std::shared_ptr<serve::ModelRegistry> registry;
  std::vector<serve::ModelKey> keys;
  std::vector<std::string> ptck_paths;
};

TrainedStack& Stack() {
  static TrainedStack stack;
  return stack;
}

LocalClusterOptions Workers(std::size_t n) {
  LocalClusterOptions options;
  options.num_workers = n;
  return options;
}

void ExpectPlansEqual(const parallel::PipelinePlan& got,
                      const parallel::PipelinePlan& want) {
  ASSERT_TRUE(got.Valid());
  ASSERT_TRUE(want.Valid());
  EXPECT_EQ(got.iteration_latency_s, want.iteration_latency_s);
  ASSERT_EQ(got.stages.size(), want.stages.size());
  for (std::size_t i = 0; i < got.stages.size(); ++i) {
    EXPECT_EQ(got.stages[i].slice.first_layer, want.stages[i].slice.first_layer);
    EXPECT_EQ(got.stages[i].slice.last_layer, want.stages[i].slice.last_layer);
    EXPECT_EQ(got.stages[i].mesh, want.stages[i].mesh);
  }
}

TEST(ClusterE2E, RouterHealthStatsAndShutdown) {
  TrainedStack& stack = Stack();
  LocalCluster cluster(stack.search.Benchmark(), stack.registry, Workers(2));
  RouterOptions options;
  options.connect_timeout_ms = 300.0;
  Router router(cluster.Endpoints(), options);

  const std::vector<bool> health = router.Health();
  ASSERT_EQ(health.size(), 2u);
  EXPECT_TRUE(health[0]);
  EXPECT_TRUE(health[1]);

  const std::uint64_t fp = graph::EncodedGraphFingerprint(stack.search.EncodedFor({0, 2}));
  const Router::Reply reply =
      router.Predict(stack.keys[0], {{0, 2}, stack.search.Meshes()[0]}, fp);
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.latency_s, stack.Direct({0, 2}, stack.search.Meshes()[0]).latency_s);

  const auto worker_stats = router.WorkerStats();
  ASSERT_EQ(worker_stats.size(), 2u);
  std::uint64_t forwards = 0;
  for (const auto& stats : worker_stats) {
    ASSERT_TRUE(stats.has_value());
    forwards += stats->forwards;
  }
  EXPECT_EQ(forwards, 1u);

  router.ShutdownWorkers();
  const std::vector<bool> after = router.Health();
  EXPECT_FALSE(after[0]);
  EXPECT_FALSE(after[1]);
}

TEST(ClusterE2E, UnknownModelKeyFailsWithoutFailover) {
  TrainedStack& stack = Stack();
  LocalCluster cluster(stack.search.Benchmark(), stack.registry, Workers(2));
  Router router(cluster.Endpoints(), {});
  const serve::ModelKey bogus{"gpt3", "platform1", sim::Mesh{7, 7}, {}};
  const Router::Reply reply = router.Predict(bogus, {{0, 1}, sim::Mesh{7, 7}}, 0x1234);
  EXPECT_FALSE(reply.ok);
  // kNotFound is definitive on a homogeneous model set: no replica retries,
  // no worker marked dead.
  EXPECT_EQ(router.Stats().failovers, 0u);
  EXPECT_EQ(router.Stats().worker_failures, 0u);
  EXPECT_TRUE(router.WorkerAlive(0));
  EXPECT_TRUE(router.WorkerAlive(1));
}

TEST(ClusterE2E, PlanSearchThroughClusterMatchesInProcessServing) {
  TrainedStack& stack = Stack();
  LocalCluster cluster(stack.search.Benchmark(), stack.registry, Workers(2));
  RouterOptions router_options;
  router_options.replicas = 2;
  Router router(cluster.Endpoints(), router_options);
  const ClusterOracle oracle(router, stack.search.Meshes(), stack.keys, stack.Encoder(),
                             stack.search.EffectiveMaxSpan());

  // The in-process reference: the same registry behind a PredictionService,
  // wrapped by ServingOracle — the fig10 serving path.
  serve::PredictionService service(stack.registry);
  const serve::ServingOracle in_process(service, stack.search.Meshes(), stack.keys,
                                        stack.Encoder(), stack.search.EffectiveMaxSpan());

  const parallel::InterOpOptimizer optimizer = stack.search.MakeOptimizer();
  const parallel::PipelinePlan cluster_plan = optimizer.Optimize(oracle.AsBatchOracle());
  const parallel::PipelinePlan in_process_plan = optimizer.Optimize(in_process.AsBatchOracle());
  const parallel::PipelinePlan scalar_plan = optimizer.Optimize(oracle.AsOracle());

  ExpectPlansEqual(cluster_plan, in_process_plan);
  ExpectPlansEqual(scalar_plan, in_process_plan);
  EXPECT_EQ(oracle.Stats().degraded, 0u);
  EXPECT_GT(router.Stats().queries, 0u);

  // Pruning matches the serving oracle: unknown meshes and over-span slices
  // are +inf without touching the wire.
  EXPECT_EQ(oracle({0, 4}, stack.search.Meshes()[0]).latency_s, kInf);
  EXPECT_EQ(oracle({0, 1}, sim::Mesh{8, 8}).latency_s, kInf);

  // Both workers actually served shards of the table (the ring spread it).
  const auto worker_stats = router.WorkerStats();
  for (const auto& stats : worker_stats) {
    ASSERT_TRUE(stats.has_value());
    EXPECT_GT(stats->queries, 0u);
  }
}

TEST(ClusterE2E, CoalescesConcurrentDuplicateQueriesClusterWide) {
  TrainedStack& stack = Stack();
  LocalCluster cluster(stack.search.Benchmark(), stack.registry, Workers(2));
  Router router(cluster.Endpoints(), {});

  // Pre-encode outside the threads: PlanSearch::EncodedFor memoizes without
  // a lock, and the whole point here is hitting the *router* concurrently.
  const sim::Mesh mesh = stack.search.Meshes()[0];
  std::vector<parallel::StageQuery> batch;
  std::vector<std::uint64_t> fingerprints;
  for (std::int32_t layer = 0; layer < 4; ++layer) {
    batch.push_back({{layer, layer + 1}, mesh});
    const graph::EncodedGraph& g = stack.search.EncodedFor({layer, layer + 1});
    fingerprints.push_back(g.fingerprint != 0 ? g.fingerprint
                                              : graph::EncodedGraphFingerprint(g));
  }

  // Slow every forward so all threads genuinely overlap one in-flight RPC.
  InjectorGuard guard("predict_delay_ms:60");
  constexpr int kThreads = 6;
  std::vector<std::vector<Router::Reply>> replies(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      replies[t] = router.PredictMany(stack.keys[0], batch, fingerprints);
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(replies[t].size(), batch.size());
    for (std::size_t q = 0; q < batch.size(); ++q) {
      ASSERT_TRUE(replies[t][q].ok);
      EXPECT_EQ(replies[t][q].latency_s, replies[0][q].latency_s);
    }
  }
  // Cluster-wide dedup: 6 threads x 4 queries, but each distinct stage was
  // forwarded through a model exactly once across the whole cluster. The
  // interior transformer layers of a homogeneous GPT share one DAG
  // fingerprint, so "distinct" is counted in fingerprints, not slices.
  const std::set<std::uint64_t> distinct(fingerprints.begin(), fingerprints.end());
  std::uint64_t forwards = 0;
  for (std::size_t w = 0; w < cluster.NumWorkers(); ++w) {
    forwards += cluster.WorkerAt(w).Service()->Stats().forwards;
  }
  EXPECT_EQ(forwards, distinct.size());
  EXPECT_GT(router.Stats().coalesced, 0u);
}

TEST(ClusterE2E, FailoverToReplicaAfterWorkerDeath) {
  TrainedStack& stack = Stack();
  LocalCluster cluster(stack.search.Benchmark(), stack.registry, Workers(3));
  RouterOptions options;
  options.replicas = 2;
  options.connect_timeout_ms = 150.0;
  options.revive_after_ms = 60000.0;  // stay dead for the whole test
  Router router(cluster.Endpoints(), options);
  const ClusterOracle oracle(router, stack.search.Meshes(), stack.keys, stack.Encoder(),
                             stack.search.EffectiveMaxSpan());

  // Kill one replica before anything was sent; every query it owned must
  // silently fail over to its second replica.
  cluster.StopWorker(0);

  const std::vector<parallel::StageQuery> table = stack.FullTable();
  std::size_t owned_by_dead = 0;
  for (const parallel::StageQuery& query : table) {
    const graph::EncodedGraph& g = stack.search.EncodedFor(query.slice);
    const std::uint64_t fp =
        g.fingerprint != 0 ? g.fingerprint : graph::EncodedGraphFingerprint(g);
    if (router.Ring().Route(fp, options.replicas)[0] == 0) ++owned_by_dead;
  }
  ASSERT_GT(owned_by_dead, 0u) << "fixture: no query owned by the dead worker";

  const std::vector<parallel::StageLatencyResult> results = oracle.PredictBatch(table);
  ASSERT_EQ(results.size(), table.size());
  for (std::size_t q = 0; q < table.size(); ++q) {
    EXPECT_EQ(results[q].latency_s, stack.Direct(table[q].slice, table[q].mesh).latency_s);
    EXPECT_FALSE(results[q].degraded);
  }
  EXPECT_EQ(oracle.Stats().degraded, 0u);
  // Duplicate fingerprints coalesce into one owner slot each, so the
  // failover count tracks distinct in-flight queries, not table cells —
  // assert the path fired, not an exact tally.
  EXPECT_GE(router.Stats().failovers, 1u);
  EXPECT_GE(router.Stats().worker_failures, 1u);
  EXPECT_FALSE(router.WorkerAlive(0));
}

TEST(ClusterE2E, MidFlightKillDegradesToFallbackWithFinitePlan) {
  TrainedStack& stack = Stack();
  LocalCluster cluster(stack.search.Benchmark(), stack.registry, Workers(2));
  RouterOptions options;
  options.replicas = 1;  // no replica: the dead worker's shard must degrade
  options.connect_timeout_ms = 50.0;
  options.revive_after_ms = 60000.0;
  Router router(cluster.Endpoints(), options);

  ClusterOracleOptions oracle_options;
  oracle_options.fallback = std::make_shared<serve::FallbackOracle>(
      sim::Platform1().device, [&stack](ir::StageSlice s) -> const ir::StageProgram& {
        return stack.search.ProgramFor(s);
      });
  const ClusterOracle oracle(router, stack.search.Meshes(), stack.keys, stack.Encoder(),
                             stack.search.EffectiveMaxSpan(), oracle_options);

  // Pre-warm the memoized encoder/program caches (not thread-safe) so the
  // background optimize thread only reads them.
  for (const parallel::StageQuery& query : stack.FullTable()) {
    (void)stack.search.EncodedFor(query.slice);
    (void)stack.search.ProgramFor(query.slice);
  }

  ASSERT_GT([&] {
    std::size_t owned = 0;
    for (const parallel::StageQuery& query : stack.FullTable()) {
      const graph::EncodedGraph& g = stack.search.EncodedFor(query.slice);
      const std::uint64_t fp =
          g.fingerprint != 0 ? g.fingerprint : graph::EncodedGraphFingerprint(g);
      if (router.Ring().Owner(fp) == 0) ++owned;
    }
    return owned;
  }(), 0u) << "fixture: nothing routed to the worker being killed";

  // Every forward sleeps 40 ms, so worker 0 is guaranteed to still be
  // mid-PredictMany when the kill lands 20 ms in.
  InjectorGuard guard("predict_delay_ms:40");
  const parallel::InterOpOptimizer optimizer = stack.search.MakeOptimizer();
  parallel::PipelinePlan plan;
  std::thread optimize([&] { plan = optimizer.Optimize(oracle.AsBatchOracle()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  cluster.StopWorker(0);
  optimize.join();

  // The drill contract: a valid, finite plan, with the dead shard's queries
  // answered by the analytical fallback and tagged degraded.
  ASSERT_TRUE(plan.Valid());
  EXPECT_TRUE(std::isfinite(plan.iteration_latency_s));
  EXPECT_GT(oracle.Stats().degraded, 0u);
  EXPECT_GE(router.Stats().unanswered, 1u);
  EXPECT_GE(router.Stats().worker_failures, 1u);
}

// ---- deadline propagation (thread-only; in the tsan lane) ----

/// Fingerprint of a stage slice as the router computes it.
std::uint64_t FingerprintOf(TrainedStack& stack, ir::StageSlice slice) {
  const graph::EncodedGraph& g = stack.search.EncodedFor(slice);
  return g.fingerprint != 0 ? g.fingerprint : graph::EncodedGraphFingerprint(g);
}

// ---- StageEncodings: one encoding per distinct stage graph ----
// The suite lives with the cluster tests so the TSan lane, which runs them,
// also covers the worker's store shared by its connection threads.

template <typename T>
void ExpectBitEqual(std::span<const T> got, std::span<const T> want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size_bytes()), 0) << what;
}

void ExpectCsrBitEqual(const tensor::Csr& got, const tensor::Csr& want) {
  EXPECT_EQ(got.rows, want.rows);
  EXPECT_EQ(got.cols, want.cols);
  EXPECT_EQ(got.row_ptr, want.row_ptr);
  EXPECT_EQ(got.col_idx, want.col_idx);
  ExpectBitEqual<float>(got.values, want.values, "csr values");
}

void ExpectEncodedBitEqual(const graph::EncodedGraph& got, const graph::EncodedGraph& want) {
  EXPECT_EQ(got.num_nodes, want.num_nodes);
  EXPECT_EQ(got.features.shape(), want.features.shape());
  ExpectBitEqual<float>(got.features.data(), want.features.data(), "features");
  EXPECT_EQ(got.dagra_mask.shape(), want.dagra_mask.shape());
  ExpectBitEqual<float>(got.dagra_mask.data(), want.dagra_mask.data(), "dagra mask");
  EXPECT_EQ(got.depths, want.depths);
  ExpectCsrBitEqual(*got.adj_norm, *want.adj_norm);
  ExpectCsrBitEqual(*got.adj_norm_t, *want.adj_norm_t);
  EXPECT_EQ(got.edge_src, want.edge_src);
  EXPECT_EQ(got.edge_dst, want.edge_dst);
  EXPECT_EQ(got.fingerprint, want.fingerprint);
}

/// Encodes every slice of spans <= max_span through one store, checking each
/// shared encoding against a fresh EncodeStage of the slice's program.
/// Returns the number of distinct encodings the store made.
std::size_t CheckSharedEncodings(const std::function<ir::StageProgram(ir::StageSlice)>& build,
                                 std::int32_t num_layers, std::int32_t max_span) {
  core::StageEncodings encodings;
  const auto slices = ir::EnumerateStageSlices(num_layers, max_span);
  for (const ir::StageSlice slice : slices) {
    const ir::StageProgram program = build(slice);
    const graph::EncodedGraph& shared =
        encodings.For(slice, [&](ir::StageSlice) -> const ir::StageProgram& { return program; });
    ExpectEncodedBitEqual(shared, core::EncodeStage(program));
    // A repeat lookup is served from the slice index without a rebuild.
    EXPECT_EQ(&encodings.For(slice,
                             [](ir::StageSlice) -> ir::StageProgram {
                               ADD_FAILURE() << "slice rebuilt";
                               return {};
                             }),
              &shared);
  }
  // Every distinct program built a distinct DAG: no DAG was built twice.
  EXPECT_EQ(encodings.NumPrograms(), encodings.NumDistinct());
  return encodings.NumDistinct();
}

TEST(StageEncodings, Gpt3SlicesShareBitEqualEncodings) {
  // 180 slices of spans <= 9 over 24 layers prune to 27 distinct DAGs.
  EXPECT_EQ(CheckSharedEncodings(core::Gpt3Benchmark().build_stage, 24, 9), 27u);
}

TEST(StageEncodings, MoeSlicesShareBitEqualEncodings) {
  // 297 slices of spans <= 11 over 32 layers prune to 44 distinct DAGs.
  EXPECT_EQ(CheckSharedEncodings(core::MoeBenchmark().build_stage, 32, 11), 44u);
}

TEST(StageEncodings, WideResNetSlicesShareBitEqualEncodings) {
  const ir::WideResNetConfig config;
  const auto blocks = static_cast<std::int32_t>(config.num_blocks);
  const std::size_t distinct = CheckSharedEncodings(
      [&config](ir::StageSlice slice) { return ir::BuildWideResNetStage(config, slice); },
      blocks, blocks);
  EXPECT_GT(distinct, 0u);
  EXPECT_LE(distinct, ir::EnumerateStageSlices(blocks, blocks).size());
}

/// Asserts, over every pair of slices of spans <= max_span, that two programs
/// share a program key exactly when their pruned DAGs are equal.
void CheckProgramKeyMatchesDag(const std::function<ir::StageProgram(ir::StageSlice)>& build,
                               std::int32_t num_layers, std::int32_t max_span) {
  std::vector<ir::StageProgram> programs;
  std::vector<graph::OpDag> dags;
  for (const ir::StageSlice slice : ir::EnumerateStageSlices(num_layers, max_span)) {
    programs.push_back(build(slice));
    dags.push_back(ir::BuildPrunedOpDag(programs.back()));
  }
  for (std::size_t a = 0; a < programs.size(); ++a) {
    for (std::size_t b = a; b < programs.size(); ++b) {
      const bool same_key = ir::SameOpDagInputs(programs[a], programs[b]);
      ASSERT_EQ(same_key, dags[a] == dags[b]) << programs[a].name << " vs " << programs[b].name;
      if (same_key) {
        ASSERT_EQ(ir::OpDagInputHash(programs[a]), ir::OpDagInputHash(programs[b]));
      }
    }
  }
}

TEST(StageEncodings, ProgramKeyEqualIffPrunedDagEqual) {
  CheckProgramKeyMatchesDag(core::Gpt3Benchmark().build_stage, 24, 9);
  CheckProgramKeyMatchesDag(core::MoeBenchmark().build_stage, 32, 11);
  const ir::WideResNetConfig config;
  const auto blocks = static_cast<std::int32_t>(config.num_blocks);
  CheckProgramKeyMatchesDag(
      [&config](ir::StageSlice slice) { return ir::BuildWideResNetStage(config, slice); }, blocks,
      blocks);
}

/// x -> dot(x, w) -> gelu -> add(gelu, dot) -> output, with one optional edit.
enum class ProgramEdit { kNone, kDim, kOperand, kOp, kOutput };

ir::StageProgram SmallProgram(ProgramEdit edit) {
  using ir::DType;
  using ir::OpType;
  ir::StageProgram program;
  const ir::ValueId x = program.AddInput({DType::kF32, {8, 16}});
  const ir::ValueId w =
      program.AddLiteral({DType::kF32, {16, edit == ProgramEdit::kDim ? 48 : 32}});
  const ir::ValueId y = program.AddEquation(OpType::kDot, {x, w}, {DType::kF32, {8, 32}}, 16);
  const ir::ValueId z = program.AddEquation(
      edit == ProgramEdit::kOp ? OpType::kTanh : OpType::kGelu, {y}, {DType::kF32, {8, 32}});
  const ir::ValueId r = program.AddEquation(
      OpType::kAdd, {z, edit == ProgramEdit::kOperand ? x : y}, {DType::kF32, {8, 32}});
  program.MarkOutput(edit == ProgramEdit::kOutput ? z : r);
  return program;
}

TEST(StageEncodings, ProgramKeyIgnoresMetadataButNotStructure) {
  core::StageEncodings encodings;
  const graph::EncodedGraph& base = encodings.Share(SmallProgram(ProgramEdit::kNone));

  // Metadata that BuildOpDag does not read: one shared entry.
  ir::StageProgram renamed = SmallProgram(ProgramEdit::kNone);
  renamed.name = "other[3,5)";
  renamed.first_layer = 3;
  renamed.last_layer = 5;
  renamed.has_embedding = true;
  renamed.has_lm_head = true;
  renamed.microbatch = 64;
  EXPECT_EQ(&encodings.Share(renamed), &base);
  EXPECT_EQ(encodings.NumPrograms(), 1u);
  EXPECT_EQ(encodings.NumDistinct(), 1u);

  // One dim, one operand, one op or one output: a new program and DAG each.
  std::size_t expected = 1;
  for (const ProgramEdit edit :
       {ProgramEdit::kDim, ProgramEdit::kOperand, ProgramEdit::kOp, ProgramEdit::kOutput}) {
    const ir::StageProgram program = SmallProgram(edit);
    EXPECT_FALSE(ir::SameOpDagInputs(program, SmallProgram(ProgramEdit::kNone)));
    const graph::EncodedGraph& encoded = encodings.Share(program);
    ++expected;
    EXPECT_NE(&encoded, &base);
    EXPECT_EQ(encodings.NumPrograms(), expected);
    EXPECT_EQ(encodings.NumDistinct(), expected);
    ExpectEncodedBitEqual(encoded, core::EncodeStage(program));
  }
}

TEST(StageEncodings, TemporaryProgramsAreKeptForLaterSlices) {
  // A build that returns by value (as GreyBoxEstimator's and the worker's
  // do): the store must keep its own copy of the program to match later
  // slices against, not a reference to the temporary.
  const core::BenchmarkModel gpt3 = core::Gpt3Benchmark();
  core::StageEncodings encodings;
  const graph::EncodedGraph& first = encodings.For({2, 5}, gpt3.build_stage);
  std::vector<ir::StageProgram> churn;  // reuse the freed temporary's memory
  for (int i = 0; i < 4; ++i) churn.push_back(gpt3.build_stage({0, 3}));
  const graph::EncodedGraph& later = encodings.For({11, 14}, gpt3.build_stage);
  EXPECT_EQ(&later, &first);
  EXPECT_EQ(encodings.NumPrograms(), 1u);
  ExpectEncodedBitEqual(later, core::EncodeStage(gpt3.build_stage({11, 14})));
}

TEST(StageEncodings, FingerprintCollisionsNeverShare) {
  // Two DAGs that differ only in node index order have the same
  // order-free fingerprint but are not equal, so they get separate entries.
  const auto diamond = [](bool swap_branches) {
    graph::OpDag dag;
    graph::DagNode input{graph::NodeKind::kInput, 0, 1, {1, 1, 8, 16}};
    graph::DagNode left{graph::NodeKind::kOperator, 3, 1, {1, 1, 8, 32}};
    graph::DagNode right{graph::NodeKind::kOperator, 5, 1, {1, 1, 8, 16}};
    graph::DagNode output{graph::NodeKind::kOutput, 0, 1, {1, 1, 8, 32}};
    if (swap_branches) std::swap(left, right);
    for (const graph::DagNode& node : {input, left, right, output}) dag.AddNode(node);
    dag.AddEdge(0, 1);
    dag.AddEdge(0, 2);
    dag.AddEdge(1, 3);
    dag.AddEdge(2, 3);
    return dag;
  };
  // Swapping the branch payloads is a relabelling of nodes 1 and 2.
  ASSERT_EQ(graph::DagFingerprint(diamond(false)), graph::DagFingerprint(diamond(true)));
  ASSERT_NE(diamond(false), diamond(true));

  core::StageEncodings encodings;
  const graph::EncodedGraph& a = encodings.Share(diamond(false));
  const graph::EncodedGraph& b = encodings.Share(diamond(true));
  EXPECT_NE(&a, &b);
  EXPECT_EQ(&encodings.Share(diamond(false)), &a);
  EXPECT_EQ(&encodings.Share(diamond(true)), &b);
  EXPECT_EQ(encodings.NumDistinct(), 2u);
}

TEST(StageEncodings, WorkerConnectionsShareOneStoreSafely) {
  TrainedStack& stack = Stack();
  LocalCluster cluster(stack.search.Benchmark(), stack.registry, Workers(1));

  // Expected values and fingerprints from the in-process search, computed
  // before any thread starts (PlanSearch::EncodedFor takes no lock).
  std::vector<parallel::StageQuery> batch;
  for (const parallel::StageQuery& query : stack.FullTable()) {
    if (query.mesh == stack.search.Meshes()[0]) batch.push_back(query);
  }
  std::vector<std::uint64_t> fingerprints;
  std::vector<double> expected;
  for (const parallel::StageQuery& query : batch) {
    fingerprints.push_back(stack.search.EncodedFor(query.slice).fingerprint);
    expected.push_back(stack.Direct(query.slice, query.mesh).latency_s);
  }

  // One router (so one worker connection thread) per client thread: every
  // thread's queries reach the worker's store concurrently.
  constexpr int kThreads = 4;
  std::vector<std::vector<Router::Reply>> replies(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Router router(cluster.Endpoints(), {});
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      replies[t] = router.PredictMany(stack.keys[0], batch, fingerprints);
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(replies[t].size(), batch.size());
    for (std::size_t q = 0; q < batch.size(); ++q) {
      ASSERT_TRUE(replies[t][q].ok);
      EXPECT_EQ(replies[t][q].latency_s, expected[q]);
    }
  }
}

TEST(Deadline, WorkerShedsExpiredPredictBeforeAnyWork) {
  TrainedStack& stack = Stack();
  LocalCluster cluster(stack.search.Benchmark(), stack.registry, Workers(1));
  Socket client = ConnectTo(cluster.Endpoints()[0]);

  PredictRequest request;
  request.key = stack.keys[0];
  request.queries = {{{0, 1}, stack.search.Meshes()[0]}};
  // A deadline one second in the past: the worker must shed before decoding
  // the payload or touching a model.
  Frame frame{MessageType::kPredictRequest, 1, EncodePredictRequest(request),
              util::SteadyNowUs() - 1'000'000};
  SendFrame(client, frame);
  const Frame reply = RecvFrame(client, 2000.0);
  ASSERT_EQ(reply.type, MessageType::kError);
  EXPECT_EQ(DecodeErrorBody(reply.payload).code, fault::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(cluster.WorkerAt(0).ShedExpired(), 1u);
  EXPECT_EQ(cluster.WorkerAt(0).Service()->Stats().forwards, 0u);

  // The same request under a generous deadline is served normally.
  frame.request_id = 2;
  frame.deadline_us = util::DeadlineAfterMs(30000.0);
  SendFrame(client, frame);
  const Frame served = RecvFrame(client, 30000.0);
  EXPECT_EQ(served.type, MessageType::kPredictResponse);
  EXPECT_EQ(cluster.WorkerAt(0).ShedExpired(), 1u);

  // The shed surfaces in the worker's stats frame.
  SendFrame(client, {MessageType::kStatsRequest, 3, {}});
  const Frame stats_reply = RecvFrame(client, 2000.0);
  ASSERT_EQ(stats_reply.type, MessageType::kStatsResponse);
  const StatsBody stats = DecodeStatsBody(stats_reply.payload);
  EXPECT_GE(stats.shed_expired, 1u);
  EXPECT_EQ(stats.late_completions, 0u);
}

TEST(Deadline, RouterGatesExpiredBatchesWithoutDispatch) {
  TrainedStack& stack = Stack();
  LocalCluster cluster(stack.search.Benchmark(), stack.registry, Workers(2));
  Router router(cluster.Endpoints(), {});

  const Router::Reply reply =
      router.Predict(stack.keys[0], {{0, 2}, stack.search.Meshes()[0]},
                     FingerprintOf(stack, {0, 2}), util::SteadyNowUs() - 1'000'000);
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.code, fault::StatusCode::kDeadlineExceeded);
  EXPECT_GE(router.Stats().expired, 1u);
  // Nothing was dispatched, and an expired deadline is the caller's fault,
  // not the workers': both stay alive.
  EXPECT_EQ(cluster.WorkerAt(0).RequestsServed() + cluster.WorkerAt(1).RequestsServed(), 0u);
  EXPECT_TRUE(router.WorkerAlive(0));
  EXPECT_TRUE(router.WorkerAlive(1));

  // With a live deadline the same query answers exactly.
  const Router::Reply served =
      router.Predict(stack.keys[0], {{0, 2}, stack.search.Meshes()[0]},
                     FingerprintOf(stack, {0, 2}), util::DeadlineAfterMs(30000.0));
  ASSERT_TRUE(served.ok);
  EXPECT_EQ(served.latency_s, stack.Direct({0, 2}, stack.search.Meshes()[0]).latency_s);
}

TEST(Deadline, RouterDefaultDeadlineComesFromEnv) {
  ::setenv("PREDTOP_DEADLINE_MS", "1500", 1);
  const RouterOptions from_env = RouterOptions::FromEnv();
  ::unsetenv("PREDTOP_DEADLINE_MS");
  EXPECT_EQ(from_env.default_deadline_ms, 1500.0);
  // Plain RouterOptions{} stays env-free: existing constructions are
  // unaffected unless they opt in via FromEnv().
  const RouterOptions plain;
  EXPECT_EQ(plain.default_deadline_ms, 0.0);
}

// ---- admission control (thread-only; in the tsan lane) ----

TEST(Admission, InflightBudgetShedsTypedOverload) {
  TrainedStack& stack = Stack();
  LocalClusterOptions local = Workers(1);
  local.max_inflight = 1;
  LocalCluster cluster(stack.search.Benchmark(), stack.registry, local);

  PredictRequest request;
  request.key = stack.keys[0];
  request.queries = {{{0, 1}, stack.search.Meshes()[0]}};
  const std::string payload = EncodePredictRequest(request);

  // Hold the worker's only predict slot with a slow forward...
  InjectorGuard guard("predict_delay_ms:250");
  Socket slow = ConnectTo(cluster.Endpoints()[0]);
  SendFrame(slow, {MessageType::kPredictRequest, 1, payload});
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // ...and a second predict fast-rejects typed instead of queueing.
  Socket rejected = ConnectTo(cluster.Endpoints()[0]);
  SendFrame(rejected, {MessageType::kPredictRequest, 1, payload});
  const Frame fast = RecvFrame(rejected, 2000.0);
  ASSERT_EQ(fast.type, MessageType::kError);
  EXPECT_EQ(DecodeErrorBody(fast.payload).code, fault::StatusCode::kOverloaded);
  EXPECT_EQ(cluster.WorkerAt(0).ShedOverload(), 1u);

  // Admitted work completes untouched.
  const Frame slow_reply = RecvFrame(slow, 10000.0);
  EXPECT_EQ(slow_reply.type, MessageType::kPredictResponse);
}

TEST(Admission, ConnectionBudgetKeepsHealthServedWhileSheddingPredicts) {
  TrainedStack& stack = Stack();
  LocalClusterOptions local = Workers(1);
  local.max_connections = 1;
  LocalCluster cluster(stack.search.Benchmark(), stack.registry, local);

  // First connection: within budget, fully served.
  Socket first = ConnectTo(cluster.Endpoints()[0]);
  SendFrame(first, {MessageType::kHealthRequest, 1, {}});
  ASSERT_EQ(RecvFrame(first, 2000.0).type, MessageType::kHealthResponse);

  // Second connection is over budget: predicts shed typed...
  PredictRequest request;
  request.key = stack.keys[0];
  request.queries = {{{0, 1}, stack.search.Meshes()[0]}};
  Socket second = ConnectTo(cluster.Endpoints()[0]);
  SendFrame(second, {MessageType::kPredictRequest, 1, EncodePredictRequest(request)});
  const Frame shed = RecvFrame(second, 2000.0);
  ASSERT_EQ(shed.type, MessageType::kError);
  EXPECT_EQ(DecodeErrorBody(shed.payload).code, fault::StatusCode::kOverloaded);
  EXPECT_GE(cluster.WorkerAt(0).ShedOverload(), 1u);

  // ...but health — the supervisor's heartbeat — still answers, so an
  // overloaded worker never looks dead to its supervisor.
  SendFrame(second, {MessageType::kHealthRequest, 2, {}});
  const Frame health = RecvFrame(second, 2000.0);
  ASSERT_EQ(health.type, MessageType::kHealthResponse);
  EXPECT_TRUE(DecodeHealthBody(health.payload).ok);
}

TEST(Admission, RouterFailsOverOverloadedWorkerToReplica) {
  TrainedStack& stack = Stack();
  LocalClusterOptions local = Workers(2);
  local.max_inflight = 1;
  LocalCluster cluster(stack.search.Benchmark(), stack.registry, local);
  RouterOptions options;
  options.replicas = 2;
  Router router(cluster.Endpoints(), options);

  // Find a (slice, mesh) owned by worker 0.
  std::size_t mesh_index = stack.search.Meshes().size();
  ir::StageSlice slice{0, 1};
  for (const parallel::StageQuery& query : stack.FullTable()) {
    if (router.Ring().Owner(FingerprintOf(stack, query.slice)) != 0) continue;
    slice = query.slice;
    for (std::size_t m = 0; m < stack.search.Meshes().size(); ++m) {
      if (stack.search.Meshes()[m] == query.mesh) mesh_index = m;
    }
    break;
  }
  ASSERT_LT(mesh_index, stack.search.Meshes().size())
      << "fixture: no query owned by worker 0";
  const sim::Mesh mesh = stack.search.Meshes()[mesh_index];

  // Occupy worker 0's only predict slot with a slow direct request.
  PredictRequest hog_request;
  hog_request.key = stack.keys[mesh_index];
  hog_request.queries = {{slice, mesh}};
  InjectorGuard guard("predict_delay_ms:250");
  Socket hog = ConnectTo(cluster.Endpoints()[0]);
  SendFrame(hog, {MessageType::kPredictRequest, 1, EncodePredictRequest(hog_request)});
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // The routed query hits the overloaded owner, gets the typed kOverloaded
  // fast-reject, and fails over to the replica — same exact answer.
  const Router::Reply reply = router.Predict(stack.keys[mesh_index], {slice, mesh},
                                             FingerprintOf(stack, slice));
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.latency_s, stack.Direct(slice, mesh).latency_s);
  EXPECT_GE(router.Stats().overloaded, 1u);
  EXPECT_GE(router.Stats().failovers, 1u);
  // A single overload sample is not an error *rate*: the breaker stays
  // closed and the worker stays routable.
  EXPECT_TRUE(router.WorkerAlive(0));
  EXPECT_EQ(router.WorkerBreaker(0), BreakerState::kClosed);

  (void)RecvFrame(hog, 10000.0);  // let the hog finish cleanly
}

// ---- router timeout / circuit breaker (thread-only; in the tsan lane) ----

TEST(RouterTimeout, AbandonedReplyReconnectsInsteadOfDesyncing) {
  TrainedStack& stack = Stack();
  LocalCluster cluster(stack.search.Benchmark(), stack.registry, Workers(1));
  RouterOptions options;
  options.replicas = 1;
  options.request_timeout_ms = 60.0;
  options.revive_after_ms = 150.0;
  Router router(cluster.Endpoints(), options);

  const sim::Mesh mesh = stack.search.Meshes()[0];
  const std::uint64_t fp = FingerprintOf(stack, {0, 2});

  Router::Reply reply;
  {
    InjectorGuard guard("predict_delay_ms:250");  // way past the 60 ms budget
    reply = router.Predict(stack.keys[0], {{0, 2}, mesh}, fp);
  }
  // The attempt was abandoned: typed failure, breaker open.
  EXPECT_FALSE(reply.ok);
  EXPECT_GE(router.Stats().worker_failures, 1u);
  EXPECT_GE(router.Stats().breaker_trips, 1u);
  EXPECT_EQ(router.WorkerBreaker(0), BreakerState::kOpen);

  // The abandoned reply lands on a connection the router already closed. A
  // fresh attempt after the breaker half-opens reconnects and sees only its
  // own reply — the regression was reading the stale frame on the old
  // stream and desyncing every request after it.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  EXPECT_EQ(router.WorkerBreaker(0), BreakerState::kHalfOpen);
  const Router::Reply retry = router.Predict(stack.keys[0], {{0, 2}, mesh}, fp);
  ASSERT_TRUE(retry.ok);
  EXPECT_EQ(retry.latency_s, stack.Direct({0, 2}, mesh).latency_s);
  // The successful half-open probe closed the breaker.
  EXPECT_TRUE(router.WorkerAlive(0));
  EXPECT_EQ(router.WorkerBreaker(0), BreakerState::kClosed);
}

TEST(RouterTimeout, RetryBudgetDeniesFailoverStorms) {
  TrainedStack& stack = Stack();
  LocalCluster cluster(stack.search.Benchmark(), stack.registry, Workers(2));
  RouterOptions options;
  options.replicas = 2;
  options.connect_timeout_ms = 100.0;
  options.revive_after_ms = 60000.0;
  options.retry_budget_initial = 0.0;  // dry bucket: every failover denied
  options.retry_budget_per_query = 0.0;
  Router router(cluster.Endpoints(), options);

  // Find a query owned by worker 0, then kill worker 0.
  ir::StageSlice slice{0, 1};
  std::size_t mesh_index = 0;
  for (const parallel::StageQuery& query : stack.FullTable()) {
    if (router.Ring().Owner(FingerprintOf(stack, query.slice)) != 0) continue;
    slice = query.slice;
    for (std::size_t m = 0; m < stack.search.Meshes().size(); ++m) {
      if (stack.search.Meshes()[m] == query.mesh) mesh_index = m;
    }
    break;
  }
  cluster.StopWorker(0);

  const Router::Reply reply =
      router.Predict(stack.keys[mesh_index], {slice, stack.search.Meshes()[mesh_index]},
                     FingerprintOf(stack, slice));
  // The transport failure would normally fail over to worker 1 — but the
  // bucket is dry, so the retry is denied and the query fails fast.
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.code, fault::StatusCode::kUnavailable);
  EXPECT_GE(router.Stats().retries_denied, 1u);
  EXPECT_EQ(router.Stats().failovers, 0u);
}

// ---- connection-thread reaping (thread-only; in the tsan lane) ----

TEST(WorkerReap, ShortLivedConnectionsAreReapedNotAccumulated) {
  TrainedStack& stack = Stack();
  LocalCluster cluster(stack.search.Benchmark(), stack.registry, Workers(1));

  // The regression: every connection left a joinable thread in the worker
  // until shutdown. 40 short-lived connections must not pile up 40 threads.
  for (int i = 0; i < 40; ++i) {
    Socket client = ConnectTo(cluster.Endpoints()[0]);
    SendFrame(client, {MessageType::kHealthRequest, 1, {}});
    (void)RecvFrame(client, 2000.0);
  }
  // Give the 40 serving threads a beat to notice the hangups, then poke one
  // more connection: its accept reaps everything already finished.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  Socket last = ConnectTo(cluster.Endpoints()[0]);
  SendFrame(last, {MessageType::kHealthRequest, 1, {}});
  (void)RecvFrame(last, 2000.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_LE(cluster.WorkerAt(0).ActiveConnectionThreads(), 3u)
      << "finished connection threads must be reaped as the worker serves";
  EXPECT_EQ(cluster.WorkerAt(0).RequestsServed(), 41u);
}

// ---- multi-process acceptance: real workers, real SIGKILL ----

TEST(ClusterProcess, PlanSearchSurvivesSigkilledWorker) {
  TrainedStack& stack = Stack();
  const ir::Gpt3Config config = TinyGptConfig();

  std::vector<std::string> model_flags;
  for (std::size_t m = 0; m < stack.search.Meshes().size(); ++m) {
    const sim::Mesh mesh = stack.search.Meshes()[m];
    model_flags.push_back("--model");
    model_flags.push_back("mesh=" + std::to_string(mesh.num_nodes) + "x" +
                          std::to_string(mesh.gpus_per_node) +
                          ",path=" + stack.ptck_paths[m]);
  }

  std::vector<Endpoint> endpoints;
  std::vector<pid_t> pids;
  for (int w = 0; w < 2; ++w) {
    const std::string socket_path = TempPath("proc_worker" + std::to_string(w) + ".sock");
    std::remove(socket_path.c_str());
    std::vector<std::string> args{
        "--listen",    "unix:" + socket_path,
        "--benchmark", "gpt3",
        "--platform",  "platform1",
        "--layers",    std::to_string(config.num_layers),
        "--seq",       std::to_string(config.seq_len),
        "--hidden",    std::to_string(config.hidden),
        "--heads",     std::to_string(config.num_heads),
        "--vocab",     std::to_string(config.vocab),
        "--micro",     std::to_string(config.microbatch),
    };
    args.insert(args.end(), model_flags.begin(), model_flags.end());
    // Slow the children's forwards so the SIGKILL below reliably lands
    // mid-PredictMany.
    const pid_t pid = SpawnWorkerProcess(args, {"PREDTOP_FAULT=predict_delay_ms:10"});
    ASSERT_GT(pid, 0);
    pids.push_back(pid);
    endpoints.push_back(Endpoint::Unix(socket_path));
  }

  RouterOptions router_options;
  router_options.replicas = 2;
  router_options.connect_timeout_ms = 10000.0;  // children load checkpoints first
  router_options.revive_after_ms = 60000.0;
  Router router(endpoints, router_options);
  const std::vector<bool> health = router.Health();
  ASSERT_TRUE(health[0]) << "worker process 0 never came up";
  ASSERT_TRUE(health[1]) << "worker process 1 never came up";

  const ClusterOracle oracle(router, stack.search.Meshes(), stack.keys, stack.Encoder(),
                             stack.search.EffectiveMaxSpan());
  // Pre-warm the (not thread-safe) encoder cache before the worker thread.
  for (const parallel::StageQuery& query : stack.FullTable()) {
    (void)stack.search.EncodedFor(query.slice);
  }

  const parallel::InterOpOptimizer optimizer = stack.search.MakeOptimizer();
  parallel::PipelinePlan cluster_plan;
  std::thread optimize([&] { cluster_plan = optimizer.Optimize(oracle.AsBatchOracle()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ::kill(pids[0], SIGKILL);
  optimize.join();

  int wstatus = WaitForExit(pids[0]);
  EXPECT_TRUE(WIFSIGNALED(wstatus));
  EXPECT_EQ(WTERMSIG(wstatus), SIGKILL);

  // Replication factor 2 with a homogeneous model set: the surviving worker
  // answers every query the dead one owned, bit-identically, so the plan
  // equals the direct in-process result despite the kill.
  const parallel::PipelinePlan direct_plan = optimizer.Optimize(
      [&stack](ir::StageSlice slice, sim::Mesh mesh) { return stack.Direct(slice, mesh); });
  ExpectPlansEqual(cluster_plan, direct_plan);
  EXPECT_EQ(oracle.Stats().degraded, 0u);
  EXPECT_GE(router.Stats().worker_failures, 1u);
  EXPECT_FALSE(router.WorkerAlive(0));

  router.ShutdownWorkers();
  wstatus = WaitForExit(pids[1]);
  EXPECT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), 0);
}

// ---- supervisor: self-healing worker processes ----
// (fork/exec based — named SupervisorProcess.* so the tsan lane, which
// cannot follow fork, never selects them.)

/// Full worker argv tail (for Supervisor specs) serving the trained stack's
/// checkpoints on `socket_path`. `extra` appends worker flags.
std::vector<std::string> SupervisedWorkerArgs(TrainedStack& stack,
                                              const std::string& socket_path,
                                              const std::vector<std::string>& extra = {}) {
  const ir::Gpt3Config config = TinyGptConfig();
  std::vector<std::string> args{
      "--cluster-worker",
      "--listen",    "unix:" + socket_path,
      "--benchmark", "gpt3",
      "--platform",  "platform1",
      "--layers",    std::to_string(config.num_layers),
      "--seq",       std::to_string(config.seq_len),
      "--hidden",    std::to_string(config.hidden),
      "--heads",     std::to_string(config.num_heads),
      "--vocab",     std::to_string(config.vocab),
      "--micro",     std::to_string(config.microbatch),
  };
  for (std::size_t m = 0; m < stack.search.Meshes().size(); ++m) {
    const sim::Mesh mesh = stack.search.Meshes()[m];
    args.push_back("--model");
    args.push_back("mesh=" + std::to_string(mesh.num_nodes) + "x" +
                   std::to_string(mesh.gpus_per_node) + ",path=" + stack.ptck_paths[m]);
  }
  args.insert(args.end(), extra.begin(), extra.end());
  return args;
}

/// Poll `predicate` every 20 ms until it holds or `timeout_ms` passes.
bool PollFor(double timeout_ms, const std::function<bool()>& predicate) {
  const std::uint64_t deadline = util::DeadlineAfterMs(timeout_ms);
  while (!predicate()) {
    if (util::DeadlineExpired(deadline)) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return true;
}

TEST(SupervisorProcess, CrashLoopBacksOffThenQuarantines) {
  // A worker whose checkpoint is missing exits typed 10 + kIoError — a
  // restartable failure. The supervisor retries with backoff; the crash
  // loop parks it in quarantine instead of respawning forever.
  const std::string socket_path = TempPath("crash_loop.sock");
  SupervisedWorkerSpec spec;
  spec.endpoint = Endpoint::Unix(socket_path);
  spec.args = {"--cluster-worker",
               "--listen", "unix:" + socket_path,
               "--benchmark", "gpt3",
               "--model", "mesh=1x1,path=" + TempPath("never_existed.ptck")};
  SupervisorOptions options;
  options.backoff_initial_ms = 20.0;
  options.backoff_max_ms = 100.0;
  options.crash_loop_threshold = 3;
  options.crash_loop_window_ms = 60000.0;
  options.quarantine_ms = 60000.0;  // park and stay parked for the assert
  Supervisor supervisor({spec}, options);
  supervisor.Start();

  ASSERT_TRUE(PollFor(20000.0, [&] {
    return supervisor.Status(0).phase == WorkerPhase::kQuarantined;
  })) << "crash loop never reached quarantine; phase="
      << WorkerPhaseName(supervisor.Status(0).phase);
  const SupervisedWorkerStatus status = supervisor.Status(0);
  EXPECT_GE(status.restarts, 3u);
  EXPECT_EQ(status.last_exit.code(), fault::StatusCode::kIoError)
      << status.last_exit.ToString();
  supervisor.Stop();
  EXPECT_EQ(supervisor.Status(0).phase, WorkerPhase::kStopped);
}

TEST(SupervisorProcess, CorruptCheckpointIsPermanentFailure) {
  // kCorruption says a restart would fail identically: no crash loop, the
  // worker is marked failed on the first exit.
  const std::string ptck = TempPath("supervisor_corrupt.ptck");
  {
    std::ofstream out(ptck, std::ios::binary);
    out << "PTCKgarbage-that-is-not-a-checkpoint";
  }
  const std::string socket_path = TempPath("corrupt_sup.sock");
  SupervisedWorkerSpec spec;
  spec.endpoint = Endpoint::Unix(socket_path);
  spec.args = {"--cluster-worker",
               "--listen", "unix:" + socket_path,
               "--benchmark", "gpt3",
               "--model", "mesh=1x1,path=" + ptck};
  SupervisorOptions options;
  options.backoff_initial_ms = 20.0;
  Supervisor supervisor({spec}, options);
  supervisor.Start();

  ASSERT_TRUE(PollFor(20000.0, [&] {
    return supervisor.Status(0).phase == WorkerPhase::kFailed;
  }));
  const SupervisedWorkerStatus status = supervisor.Status(0);
  EXPECT_EQ(status.restarts, 0u);
  EXPECT_EQ(status.pid, -1);
  EXPECT_EQ(status.last_exit.code(), fault::StatusCode::kCorruption)
      << status.last_exit.ToString();
  // It stays failed — no respawn attempts accumulate.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(supervisor.Status(0).phase, WorkerPhase::kFailed);
  EXPECT_EQ(supervisor.Status(0).restarts, 0u);
  supervisor.Stop();
  std::remove(ptck.c_str());
}

TEST(SupervisorProcess, HeartbeatDropInjectionDeclaresHealthyWorkerHung) {
  // The hb_drop site makes every probe report a miss without touching the
  // socket: hung-worker detection drills deterministically, no SIGSTOP
  // timing games.
  TrainedStack& stack = Stack();
  const std::string socket_path = TempPath("hb_drop.sock");
  std::remove(socket_path.c_str());
  SupervisedWorkerSpec spec;
  spec.endpoint = Endpoint::Unix(socket_path);
  spec.args = SupervisedWorkerArgs(stack, socket_path);
  SupervisorOptions options;
  options.heartbeat_interval_ms = 50.0;
  options.heartbeat_timeout_ms = 150.0;
  options.max_heartbeat_misses = 2;
  options.startup_grace_ms = 60000.0;
  options.backoff_initial_ms = 50.0;
  Supervisor supervisor({spec}, options);
  supervisor.Start();
  ASSERT_TRUE(supervisor.WaitUntilUp(0, 60000.0));
  const pid_t first_pid = supervisor.Status(0).pid;

  {
    InjectorGuard guard("hb_drop:1");
    ASSERT_TRUE(PollFor(20000.0, [&] { return supervisor.Status(0).hung_kills >= 1; }))
        << "dropped heartbeats never tripped the hung-worker deadline";
  }
  // Probes heal after the drill: the replacement process comes up.
  ASSERT_TRUE(supervisor.WaitUntilUp(0, 60000.0));
  EXPECT_NE(supervisor.Status(0).pid, first_pid);
  EXPECT_GE(supervisor.Status(0).restarts, 1u);
  EXPECT_EQ(supervisor.Status(0).last_exit.code(), fault::StatusCode::kUnavailable);
  supervisor.Stop();
}

TEST(SupervisorProcess, DrillPlanSearchSurvivesKillStopAndOverload) {
  // The end-to-end overload drill: a fig10-shaped plan search over a
  // supervised cluster stays correct while one worker is SIGKILLed, a
  // second is SIGSTOPped (hung, not dead), and injected overload sheds
  // traffic — and the supervisor brings every casualty back.
  TrainedStack& stack = Stack();
  std::vector<SupervisedWorkerSpec> specs;
  for (int w = 0; w < 3; ++w) {
    const std::string socket_path = TempPath("drill_worker" + std::to_string(w) + ".sock");
    std::remove(socket_path.c_str());
    SupervisedWorkerSpec spec;
    spec.endpoint = Endpoint::Unix(socket_path);
    // Tight admission + a small cache + slowed forwards so the overload
    // phase genuinely saturates the predict slots.
    spec.args = SupervisedWorkerArgs(stack, socket_path,
                                     {"--max-inflight", "2", "--cache", "8"});
    spec.extra_env = {"PREDTOP_FAULT=predict_delay_ms:5"};
    specs.push_back(std::move(spec));
  }
  SupervisorOptions sup_options;
  sup_options.heartbeat_interval_ms = 100.0;
  sup_options.heartbeat_timeout_ms = 200.0;
  sup_options.max_heartbeat_misses = 2;
  sup_options.startup_grace_ms = 60000.0;
  sup_options.backoff_initial_ms = 50.0;
  Supervisor supervisor(specs, sup_options);

  RouterOptions router_options;
  router_options.replicas = 2;
  router_options.connect_timeout_ms = 1000.0;
  router_options.request_timeout_ms = 1500.0;
  router_options.revive_after_ms = 60000.0;  // only the supervisor revives
  std::mutex router_mutex;
  std::unique_ptr<Router> router;
  // Close the loop: a restarted worker re-enters routing immediately.
  supervisor.SetOnWorkerUp([&](std::size_t index) {
    const std::scoped_lock lock(router_mutex);
    if (router) router->MarkRevived(index);
  });

  supervisor.Start();
  ASSERT_TRUE(supervisor.WaitAllUp(120000.0));
  {
    const std::scoped_lock lock(router_mutex);
    router = std::make_unique<Router>(supervisor.Endpoints(), router_options);
  }
  const ClusterOracle oracle(*router, stack.search.Meshes(), stack.keys, stack.Encoder(),
                             stack.search.EffectiveMaxSpan());
  // Pre-warm the memoized (not thread-safe) caches read by worker threads.
  for (const parallel::StageQuery& query : stack.FullTable()) {
    (void)stack.search.EncodedFor(query.slice);
    (void)stack.search.ProgramFor(query.slice);
  }
  const parallel::InterOpOptimizer optimizer = stack.search.MakeOptimizer();
  const parallel::PipelinePlan direct_plan = optimizer.Optimize(
      [&stack](ir::StageSlice slice, sim::Mesh mesh) { return stack.Direct(slice, mesh); });

  // --- Phase 1: SIGKILL worker 0 mid-search. Replication keeps the plan
  // exactly equal to the in-process result; the supervisor restarts it.
  {
    parallel::PipelinePlan plan;
    std::thread optimize_thread([&] { plan = optimizer.Optimize(oracle.AsBatchOracle()); });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const pid_t victim = supervisor.Status(0).pid;
    ASSERT_GT(victim, 0);
    ::kill(victim, SIGKILL);
    optimize_thread.join();
    ExpectPlansEqual(plan, direct_plan);
    ASSERT_TRUE(supervisor.WaitUntilUp(0, 60000.0));
    EXPECT_GE(supervisor.Status(0).restarts, 1u);
    EXPECT_NE(supervisor.Status(0).pid, victim);
    // The on-up hook marked it revived: routing returns without waiting out
    // the breaker backoff.
    ASSERT_TRUE(PollFor(10000.0, [&] { return router->WorkerAlive(0); }));
  }

  // --- Phase 2: SIGSTOP worker 1 mid-search — alive to the kernel, hung to
  // everyone else. The router's per-attempt timeout trips the breaker and
  // fails over (plan still exact); the supervisor's heartbeat deadline
  // detects the hang, SIGKILLs and restarts it.
  {
    const std::uint64_t trips_before = router->Stats().breaker_trips;
    // Stop the worker before the search starts: phase 1 warmed the other
    // workers' caches, so a mid-flight stop could land after the victim
    // already answered its share. Hung-for-the-whole-search is the harder
    // case anyway — every query it owns must time out and fail over.
    const pid_t victim = supervisor.Status(1).pid;
    ASSERT_GT(victim, 0);
    ::kill(victim, SIGSTOP);
    parallel::PipelinePlan plan;
    std::thread optimize_thread([&] { plan = optimizer.Optimize(oracle.AsBatchOracle()); });
    optimize_thread.join();
    ExpectPlansEqual(plan, direct_plan);
    EXPECT_GE(router->Stats().breaker_trips, trips_before + 1)
        << "the stalled worker never tripped the breaker";
    ASSERT_TRUE(PollFor(30000.0, [&] { return supervisor.Status(1).hung_kills >= 1; }))
        << "heartbeat deadline never declared the SIGSTOPped worker hung";
    ASSERT_TRUE(supervisor.WaitUntilUp(1, 60000.0));
    EXPECT_NE(supervisor.Status(1).pid, victim);
    // Restart closes the breaker.
    ASSERT_TRUE(PollFor(10000.0, [&] { return router->WorkerAlive(1); }));
    EXPECT_EQ(router->WorkerBreaker(1), BreakerState::kClosed);
  }

  // --- Phase 3: injected overload. Hog threads saturate every worker's two
  // predict slots while the search runs with the analytical fallback: shed
  // traffic fails over or degrades, and the plan stays valid and finite.
  {
    ClusterOracleOptions oracle_options;
    oracle_options.fallback = std::make_shared<serve::FallbackOracle>(
        sim::Platform1().device, [&stack](ir::StageSlice s) -> const ir::StageProgram& {
          return stack.search.ProgramFor(s);
        });
    const ClusterOracle overloaded_oracle(*router, stack.search.Meshes(), stack.keys,
                                          stack.Encoder(), stack.search.EffectiveMaxSpan(),
                                          oracle_options);
    PredictRequest hog_request;
    hog_request.key = stack.keys[0];
    for (std::int32_t layer = 0; layer < 4; ++layer) {
      hog_request.queries.push_back({{layer, layer + 1}, stack.search.Meshes()[0]});
    }
    const std::string hog_payload = EncodePredictRequest(hog_request);
    std::atomic<bool> stop_hogs{false};
    std::vector<std::thread> hogs;
    for (std::size_t w = 0; w < supervisor.NumWorkers(); ++w) {
      for (int h = 0; h < 4; ++h) {
        hogs.emplace_back([&, w] {
          std::uint64_t id = 1;
          while (!stop_hogs.load(std::memory_order_acquire)) {
            try {
              Socket socket = ConnectTo(supervisor.Endpoints()[w], 200.0);
              SendFrame(socket, {MessageType::kPredictRequest, id++, hog_payload});
              (void)RecvFrame(socket, 2000.0);
            } catch (const std::exception&) {
              // Shed or timed out — the point of the drill.
            }
          }
        });
      }
    }
    parallel::PipelinePlan plan;
    std::thread optimize_thread(
        [&] { plan = optimizer.Optimize(overloaded_oracle.AsBatchOracle()); });
    optimize_thread.join();
    stop_hogs.store(true, std::memory_order_release);
    for (std::thread& hog : hogs) hog.join();

    ASSERT_TRUE(plan.Valid());
    EXPECT_TRUE(std::isfinite(plan.iteration_latency_s));
    // Admission control actually fired somewhere under 12 hog threads
    // against 2-slot workers.
    std::uint64_t total_shed = 0;
    for (const auto& stats : router->WorkerStats()) {
      if (stats.has_value()) total_shed += stats->shed_overload;
    }
    EXPECT_GE(total_shed, 1u) << "the overload phase never shed anything";
  }

  supervisor.Stop();
  for (std::size_t w = 0; w < supervisor.NumWorkers(); ++w) {
    EXPECT_EQ(supervisor.Status(w).phase, WorkerPhase::kStopped);
  }
}

}  // namespace
}  // namespace predtop::cluster

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--cluster-worker") == 0) {
      return predtop::cluster::WorkerMain(argc, argv);
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
