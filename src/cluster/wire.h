#pragma once
// Framed wire protocol of the prediction cluster. Every message is one
// frame:
//
//   magic    u32   'PTCW' (0x50544357)
//   version  u16   kWireVersion (1) or kWireVersionDeadline (2)
//   type     u16   MessageType
//   id       u64   request id (echoed verbatim in the response)
//   length   u64   payload byte count (bounded by kMaxPayloadBytes *before*
//                  any allocation — a hostile length prefix cannot size a
//                  multi-GB buffer)
//   deadline u64   [version >= 2 only] absolute steady-clock deadline in
//                  microseconds (util::SteadyNowUs time base; 0 = none).
//                  The encoder emits a version-1 frame when the deadline is
//                  zero, so deadline-free traffic is byte-identical to the
//                  legacy protocol and either end can be old or new.
//   payload  ...   type-specific body (codecs below)
//   crc      u32   fault::Crc32 over header (incl. deadline) + payload
//
// The CRC footer turns a flipped bit anywhere in a frame into a typed
// fault::CorruptionError at decode time instead of a silently wrong latency
// — the same contract the `.ptck` checkpoint footer gives disk bytes, here
// applied to socket bytes. All integers are little-endian (the only
// platforms this repo targets); doubles travel as their IEEE-754 bit
// pattern, so a latency survives the wire bit-identically and a
// cluster-served plan can be compared `==` against an in-process one.
//
// Payloads deliberately carry *compact* stage identities (StageQuery =
// layer slice + mesh, 16 bytes) rather than encoded feature tensors: both
// ends of the wire own the benchmark model, so the worker re-encodes the
// slice locally (memoized) and a predict round-trip for a hundred DP table
// cells fits in a couple of KB.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fault/status.h"
#include "parallel/inter_op.h"
#include "serve/registry.h"

namespace predtop::cluster {

inline constexpr std::uint32_t kFrameMagic = 0x50544357u;  // "PTCW"
inline constexpr std::uint16_t kWireVersion = 1;
/// Version 2 appends an 8-byte absolute deadline to the header. Decoders
/// accept both; encoders emit v1 whenever deadline_us == 0.
inline constexpr std::uint16_t kWireVersionDeadline = 2;
/// Upper bound a decoder will believe for one payload. Far above any real
/// message (a 10k-query batch is ~160 KB) but far below anything that could
/// pressure memory.
inline constexpr std::uint64_t kMaxPayloadBytes = 64ull << 20;
/// Bytes before the payload in a version-1 frame: magic + version + type +
/// id + length. A version-2 frame adds kFrameDeadlineBytes after these.
inline constexpr std::size_t kFrameHeaderBytes = 4 + 2 + 2 + 8 + 8;
inline constexpr std::size_t kFrameDeadlineBytes = 8;  // v2 deadline_us
inline constexpr std::size_t kFrameFooterBytes = 4;    // crc32

enum class MessageType : std::uint16_t {
  kError = 0,             // ErrorBody — a typed Status crossing the wire
  kPredictRequest = 1,    // PredictRequest (one query or a whole batch)
  kPredictResponse = 2,   // PredictResponse
  kHealthRequest = 3,     // empty payload
  kHealthResponse = 4,    // HealthBody
  kStatsRequest = 5,      // empty payload
  kStatsResponse = 6,     // StatsBody
  kShutdownRequest = 7,   // empty payload; worker stops after responding
  kShutdownResponse = 8,  // empty payload
};
[[nodiscard]] const char* MessageTypeName(MessageType type) noexcept;

struct Frame {
  MessageType type = MessageType::kError;
  std::uint64_t request_id = 0;
  std::string payload;
  /// Absolute steady-clock deadline in microseconds (util::SteadyNowUs time
  /// base); 0 = no deadline. Nonzero deadlines upgrade the frame to wire
  /// version 2 on encode. Last member so existing aggregate initializers
  /// keep their meaning.
  std::uint64_t deadline_us = 0;
};

/// Serialize a frame (header + payload + CRC footer).
[[nodiscard]] std::string EncodeFrame(const Frame& frame);

/// Decode one complete frame from `bytes`. Throws fault::CorruptionError on
/// bad magic/version/length/CRC or truncation. Returns the frame and the
/// bytes consumed (for callers that buffer a stream; the socket transport
/// reads header and body separately instead).
[[nodiscard]] std::pair<Frame, std::size_t> DecodeFrame(std::string_view bytes);

/// Header-only decode used by the streaming transport: validates magic /
/// version / payload bound and returns (version, type, id, payload length).
struct FrameHeader {
  std::uint16_t version = kWireVersion;
  MessageType type = MessageType::kError;
  std::uint64_t request_id = 0;
  std::uint64_t payload_size = 0;

  /// Header bytes that follow the fixed 24-byte prefix (8 for a v2 frame's
  /// deadline, 0 for v1) — the streaming transport reads exactly this many
  /// extra bytes before the payload.
  [[nodiscard]] std::size_t ExtraHeaderBytes() const noexcept {
    return version >= kWireVersionDeadline ? kFrameDeadlineBytes : 0;
  }
};
[[nodiscard]] FrameHeader DecodeFrameHeader(std::string_view header_bytes);

/// Decode the v2 deadline extension (kFrameDeadlineBytes little-endian
/// bytes). Throws fault::CorruptionError on truncation.
[[nodiscard]] std::uint64_t DecodeFrameDeadline(std::string_view deadline_bytes);

// ---- payload bodies ----

/// Predict one batch of stage queries under one served model. The worker
/// answers queries in order; `PredictResponse::results[i]` prices
/// `queries[i]`.
struct PredictRequest {
  serve::ModelKey key;
  std::vector<parallel::StageQuery> queries;
};

struct WireLatency {
  double latency_s = 0.0;
  parallel::ParallelConfig config;
  bool degraded = false;
};

struct PredictResponse {
  std::vector<WireLatency> results;
};

struct HealthBody {
  bool ok = false;
  std::uint32_t num_models = 0;
  std::string detail;
};

struct StatsBody {
  std::uint64_t requests = 0;  // frames served by this worker
  std::uint64_t queries = 0;
  std::uint64_t forwards = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t batches = 0;
  std::uint64_t batched_queries = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  // Overload-protection counters (PR 8): requests shed because their
  // deadline had already passed, requests fast-rejected by admission
  // control, and forwards that completed after their deadline anyway
  // (the drill asserts this last one stays zero).
  std::uint64_t shed_expired = 0;
  std::uint64_t shed_overload = 0;
  std::uint64_t late_completions = 0;
  // Service latency of *admitted* predict requests (time from frame decode
  // to reply encode inside the worker), from a fixed histogram. This is
  // the latency the worker's overload protection actually controls —
  // client-observed round trips additionally include client-side
  // scheduling the server cannot bound.
  std::uint64_t svc_p50_us = 0;
  std::uint64_t svc_p99_us = 0;
  // Compiled-program cache outcomes, process-wide in the worker. The body
  // ends here: a body from a peer that still sends the two deleted
  // batch-executor counters after these fields carries 16 trailing bytes and
  // fails DecodeStatsBody's end check with a typed kCorruption error.
  std::uint64_t program_cache_hits = 0;
  std::uint64_t program_cache_misses = 0;
};

struct ErrorBody {
  fault::StatusCode code = fault::StatusCode::kInternal;
  std::string message;

  [[nodiscard]] fault::Status ToStatus() const { return {code, message}; }
};

[[nodiscard]] std::string EncodePredictRequest(const PredictRequest& request);
[[nodiscard]] PredictRequest DecodePredictRequest(std::string_view payload);

[[nodiscard]] std::string EncodePredictResponse(const PredictResponse& response);
[[nodiscard]] PredictResponse DecodePredictResponse(std::string_view payload);

[[nodiscard]] std::string EncodeHealthBody(const HealthBody& body);
[[nodiscard]] HealthBody DecodeHealthBody(std::string_view payload);

[[nodiscard]] std::string EncodeStatsBody(const StatsBody& body);
[[nodiscard]] StatsBody DecodeStatsBody(std::string_view payload);

[[nodiscard]] std::string EncodeErrorBody(const ErrorBody& body);
[[nodiscard]] ErrorBody DecodeErrorBody(std::string_view payload);

}  // namespace predtop::cluster
