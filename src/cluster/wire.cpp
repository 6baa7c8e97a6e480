#include "cluster/wire.h"

#include <cstring>
#include <limits>

#include "fault/crc32.h"

namespace predtop::cluster {

namespace {

// ---- little-endian byte writer / bounds-checked reader ----
// The codec mirrors nn::serialize's hardening rules (validate every claimed
// length before allocating) but writes into a string instead of a stream —
// a frame is assembled in memory so the CRC can cover it in one pass.

class Writer {
 public:
  void U8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void U16(std::uint16_t v) { Raw(&v, sizeof v); }
  void U32(std::uint32_t v) { Raw(&v, sizeof v); }
  void U64(std::uint64_t v) { Raw(&v, sizeof v); }
  void I32(std::int32_t v) { Raw(&v, sizeof v); }
  void F64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    U64(bits);
  }
  void Str(const std::string& s) {
    U32(static_cast<std::uint32_t>(s.size()));
    buf_.append(s);
  }
  [[nodiscard]] std::string Take() { return std::move(buf_); }

 private:
  void Raw(const void* p, std::size_t n) {
    buf_.append(static_cast<const char*>(p), n);
  }
  std::string buf_;
};

class Reader {
 public:
  Reader(std::string_view bytes, const char* what) : bytes_(bytes), what_(what) {}

  std::uint8_t U8() { return Fixed<std::uint8_t>(); }
  std::uint16_t U16() { return Fixed<std::uint16_t>(); }
  std::uint32_t U32() { return Fixed<std::uint32_t>(); }
  std::uint64_t U64() { return Fixed<std::uint64_t>(); }
  std::int32_t I32() { return Fixed<std::int32_t>(); }
  double F64() {
    const std::uint64_t bits = U64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  std::string Str() {
    const std::uint32_t n = U32();
    Need(n, "string");
    std::string s(bytes_.substr(pos_, n));
    pos_ += n;
    return s;
  }
  /// Claimed element count for a vector of elements >= `min_elem_bytes`
  /// each; rejected before any allocation if the remaining payload cannot
  /// possibly hold it.
  std::size_t Count(std::size_t min_elem_bytes) {
    const std::uint32_t n = U32();
    if (min_elem_bytes > 0 &&
        static_cast<std::uint64_t>(n) * min_elem_bytes > bytes_.size() - pos_) {
      throw fault::CorruptionError(std::string(what_) + ": claimed count " +
                                   std::to_string(n) + " exceeds remaining payload");
    }
    return n;
  }
  void ExpectEnd() const {
    if (pos_ != bytes_.size()) {
      throw fault::CorruptionError(std::string(what_) + ": " +
                                   std::to_string(bytes_.size() - pos_) +
                                   " trailing bytes after payload");
    }
  }

 private:
  template <typename T>
  T Fixed() {
    Need(sizeof(T), "field");
    T v;
    std::memcpy(&v, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  void Need(std::size_t n, const char* piece) const {
    if (bytes_.size() - pos_ < n) {
      throw fault::CorruptionError(std::string(what_) + ": truncated " + piece + " (need " +
                                   std::to_string(n) + " bytes, have " +
                                   std::to_string(bytes_.size() - pos_) + ")");
    }
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
  const char* what_;
};

void WriteMesh(Writer& w, sim::Mesh mesh) {
  w.I32(mesh.num_nodes);
  w.I32(mesh.gpus_per_node);
}
sim::Mesh ReadMesh(Reader& r) { return {r.I32(), r.I32()}; }

void WriteConfig(Writer& w, const parallel::ParallelConfig& config) {
  w.I32(config.dp);
  w.I32(config.mp);
  w.I32(config.tp);
}
parallel::ParallelConfig ReadConfig(Reader& r) { return {r.I32(), r.I32(), r.I32()}; }

}  // namespace

const char* MessageTypeName(MessageType type) noexcept {
  switch (type) {
    case MessageType::kError: return "error";
    case MessageType::kPredictRequest: return "predict_request";
    case MessageType::kPredictResponse: return "predict_response";
    case MessageType::kHealthRequest: return "health_request";
    case MessageType::kHealthResponse: return "health_response";
    case MessageType::kStatsRequest: return "stats_request";
    case MessageType::kStatsResponse: return "stats_response";
    case MessageType::kShutdownRequest: return "shutdown_request";
    case MessageType::kShutdownResponse: return "shutdown_response";
  }
  return "unknown";
}

std::string EncodeFrame(const Frame& frame) {
  Writer w;
  w.U32(kFrameMagic);
  // Deadline-free frames stay byte-identical to the legacy v1 protocol; a
  // nonzero deadline upgrades the frame to v2 (8 extra header bytes).
  w.U16(frame.deadline_us == 0 ? kWireVersion : kWireVersionDeadline);
  w.U16(static_cast<std::uint16_t>(frame.type));
  w.U64(frame.request_id);
  w.U64(frame.payload.size());
  if (frame.deadline_us != 0) w.U64(frame.deadline_us);
  std::string bytes = w.Take();
  bytes.append(frame.payload);
  const std::uint32_t crc = fault::Crc32(bytes.data(), bytes.size());
  bytes.append(reinterpret_cast<const char*>(&crc), sizeof crc);
  return bytes;
}

FrameHeader DecodeFrameHeader(std::string_view header_bytes) {
  Reader r(header_bytes, "cluster frame header");
  const std::uint32_t magic = r.U32();
  if (magic != kFrameMagic) {
    throw fault::CorruptionError("cluster frame: bad magic 0x" +
                                 std::to_string(magic));
  }
  const std::uint16_t version = r.U16();
  if (version != kWireVersion && version != kWireVersionDeadline) {
    throw fault::CorruptionError("cluster frame: unsupported wire version " +
                                 std::to_string(version));
  }
  FrameHeader header;
  header.version = version;
  const std::uint16_t type = r.U16();
  if (type > static_cast<std::uint16_t>(MessageType::kShutdownResponse)) {
    throw fault::CorruptionError("cluster frame: unknown message type " +
                                 std::to_string(type));
  }
  header.type = static_cast<MessageType>(type);
  header.request_id = r.U64();
  header.payload_size = r.U64();
  if (header.payload_size > kMaxPayloadBytes) {
    throw fault::CorruptionError("cluster frame: payload length " +
                                 std::to_string(header.payload_size) +
                                 " exceeds the " + std::to_string(kMaxPayloadBytes) +
                                 "-byte bound");
  }
  return header;
}

std::uint64_t DecodeFrameDeadline(std::string_view deadline_bytes) {
  Reader r(deadline_bytes, "cluster frame deadline");
  return r.U64();
}

std::pair<Frame, std::size_t> DecodeFrame(std::string_view bytes) {
  if (bytes.size() < kFrameHeaderBytes) {
    throw fault::CorruptionError("cluster frame: truncated header (" +
                                 std::to_string(bytes.size()) + " bytes)");
  }
  const FrameHeader header = DecodeFrameHeader(bytes.substr(0, kFrameHeaderBytes));
  const std::size_t extra = header.ExtraHeaderBytes();
  const std::size_t total = kFrameHeaderBytes + extra +
                            static_cast<std::size_t>(header.payload_size) +
                            kFrameFooterBytes;
  if (bytes.size() < total) {
    throw fault::CorruptionError("cluster frame: truncated body (need " +
                                 std::to_string(total) + " bytes, have " +
                                 std::to_string(bytes.size()) + ")");
  }
  const std::size_t crc_at = total - kFrameFooterBytes;
  std::uint32_t stored_crc;
  std::memcpy(&stored_crc, bytes.data() + crc_at, sizeof stored_crc);
  const std::uint32_t computed = fault::Crc32(bytes.data(), crc_at);
  if (stored_crc != computed) {
    throw fault::CorruptionError("cluster frame: CRC mismatch (stored " +
                                 std::to_string(stored_crc) + ", computed " +
                                 std::to_string(computed) + ")");
  }
  Frame frame;
  frame.type = header.type;
  frame.request_id = header.request_id;
  if (extra > 0) {
    frame.deadline_us =
        DecodeFrameDeadline(bytes.substr(kFrameHeaderBytes, extra));
  }
  frame.payload.assign(bytes.data() + kFrameHeaderBytes + extra,
                       static_cast<std::size_t>(header.payload_size));
  return {std::move(frame), total};
}

std::string EncodePredictRequest(const PredictRequest& request) {
  Writer w;
  w.Str(request.key.benchmark);
  w.Str(request.key.platform);
  WriteMesh(w, request.key.mesh);
  WriteConfig(w, request.key.config);
  w.U32(static_cast<std::uint32_t>(request.queries.size()));
  for (const parallel::StageQuery& q : request.queries) {
    w.I32(q.slice.first_layer);
    w.I32(q.slice.last_layer);
    WriteMesh(w, q.mesh);
  }
  return w.Take();
}

PredictRequest DecodePredictRequest(std::string_view payload) {
  Reader r(payload, "predict request");
  PredictRequest request;
  request.key.benchmark = r.Str();
  request.key.platform = r.Str();
  request.key.mesh = ReadMesh(r);
  request.key.config = ReadConfig(r);
  const std::size_t n = r.Count(16);  // 4 x i32 per query
  request.queries.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    parallel::StageQuery q;
    q.slice.first_layer = r.I32();
    q.slice.last_layer = r.I32();
    q.mesh = ReadMesh(r);
    request.queries.push_back(q);
  }
  r.ExpectEnd();
  return request;
}

std::string EncodePredictResponse(const PredictResponse& response) {
  Writer w;
  w.U32(static_cast<std::uint32_t>(response.results.size()));
  for (const WireLatency& result : response.results) {
    w.F64(result.latency_s);
    WriteConfig(w, result.config);
    w.U8(result.degraded ? 1 : 0);
  }
  return w.Take();
}

PredictResponse DecodePredictResponse(std::string_view payload) {
  Reader r(payload, "predict response");
  PredictResponse response;
  const std::size_t n = r.Count(21);  // f64 + 3 x i32 + u8
  response.results.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    WireLatency result;
    result.latency_s = r.F64();
    result.config = ReadConfig(r);
    result.degraded = r.U8() != 0;
    response.results.push_back(result);
  }
  r.ExpectEnd();
  return response;
}

std::string EncodeHealthBody(const HealthBody& body) {
  Writer w;
  w.U8(body.ok ? 1 : 0);
  w.U32(body.num_models);
  w.Str(body.detail);
  return w.Take();
}

HealthBody DecodeHealthBody(std::string_view payload) {
  Reader r(payload, "health body");
  HealthBody body;
  body.ok = r.U8() != 0;
  body.num_models = r.U32();
  body.detail = r.Str();
  r.ExpectEnd();
  return body;
}

std::string EncodeStatsBody(const StatsBody& body) {
  Writer w;
  w.U64(body.requests);
  w.U64(body.queries);
  w.U64(body.forwards);
  w.U64(body.coalesced);
  w.U64(body.batches);
  w.U64(body.batched_queries);
  w.U64(body.cache_hits);
  w.U64(body.cache_misses);
  w.U64(body.shed_expired);
  w.U64(body.shed_overload);
  w.U64(body.late_completions);
  w.U64(body.svc_p50_us);
  w.U64(body.svc_p99_us);
  w.U64(body.program_cache_hits);
  w.U64(body.program_cache_misses);
  return w.Take();
}

StatsBody DecodeStatsBody(std::string_view payload) {
  Reader r(payload, "stats body");
  StatsBody body;
  body.requests = r.U64();
  body.queries = r.U64();
  body.forwards = r.U64();
  body.coalesced = r.U64();
  body.batches = r.U64();
  body.batched_queries = r.U64();
  body.cache_hits = r.U64();
  body.cache_misses = r.U64();
  body.shed_expired = r.U64();
  body.shed_overload = r.U64();
  body.late_completions = r.U64();
  body.svc_p50_us = r.U64();
  body.svc_p99_us = r.U64();
  body.program_cache_hits = r.U64();
  body.program_cache_misses = r.U64();
  r.ExpectEnd();
  return body;
}

std::string EncodeErrorBody(const ErrorBody& body) {
  Writer w;
  w.U32(static_cast<std::uint32_t>(body.code));
  w.Str(body.message);
  return w.Take();
}

ErrorBody DecodeErrorBody(std::string_view payload) {
  Reader r(payload, "error body");
  ErrorBody body;
  const std::uint32_t code = r.U32();
  if (code > static_cast<std::uint32_t>(fault::StatusCode::kOverloaded)) {
    throw fault::CorruptionError("error body: unknown status code " + std::to_string(code));
  }
  body.code = static_cast<fault::StatusCode>(code);
  body.message = r.Str();
  r.ExpectEnd();
  return body;
}

}  // namespace predtop::cluster
