#include "nn/serialize.h"

#include <cstdint>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <unordered_map>

#include "fault/status.h"

namespace predtop::nn {

namespace {

template <typename T>
void WritePod(std::ostream& out, T value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof value);
}

template <typename T>
T ReadPod(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof value);
  if (!in) throw fault::CorruptionError("serialize: truncated stream");
  return value;
}

/// Hard cap applied when the stream is not seekable and the remaining size is
/// unknowable — far above any real checkpoint, far below a hostile u32/u64.
constexpr std::uint64_t kMaxBlobBytes = 1ull << 30;

}  // namespace

std::optional<std::uint64_t> RemainingBytes(std::istream& in) {
  const auto state = in.rdstate();
  const std::istream::pos_type pos = in.tellg();
  if (!in || pos == std::istream::pos_type(-1)) {
    in.clear(state);
    return std::nullopt;
  }
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.seekg(pos);
  if (!in || end == std::istream::pos_type(-1) || end < pos) {
    in.clear(state);
    in.seekg(pos);
    return std::nullopt;
  }
  return static_cast<std::uint64_t>(end - pos);
}

void CheckClaimedSize(std::istream& in, std::uint64_t claimed_bytes, const char* what) {
  // A corrupt or hostile length prefix must fail *before* the allocation it
  // sizes: checkpoints are a few MB, so a multi-GB claim is always garbage.
  if (const auto remaining = RemainingBytes(in)) {
    if (claimed_bytes > *remaining) {
      throw fault::CorruptionError(
          std::string("serialize: ") + what + " claims " + std::to_string(claimed_bytes) +
          " bytes but only " + std::to_string(*remaining) + " remain in the stream");
    }
  } else if (claimed_bytes > kMaxBlobBytes) {
    throw fault::CorruptionError(std::string("serialize: ") + what + " claims " +
                                 std::to_string(claimed_bytes) +
                                 " bytes on a non-seekable stream (cap " +
                                 std::to_string(kMaxBlobBytes) + ")");
  }
}

void WriteTensor(std::ostream& out, const tensor::Tensor& t) {
  WritePod<std::uint32_t>(out, static_cast<std::uint32_t>(t.rank()));
  for (const std::int64_t d : t.shape()) WritePod<std::int64_t>(out, d);
  const auto data = t.data();
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size() * sizeof(float)));
}

tensor::Tensor ReadTensor(std::istream& in) {
  const auto rank = ReadPod<std::uint32_t>(in);
  if (rank > 8) throw fault::CorruptionError("serialize: implausible tensor rank");
  tensor::Shape shape;
  std::uint64_t numel = 1;
  for (std::uint32_t i = 0; i < rank; ++i) {
    const std::int64_t d = ReadPod<std::int64_t>(in);
    if (d < 0) throw fault::CorruptionError("serialize: negative tensor dimension");
    const auto ud = static_cast<std::uint64_t>(d);
    if (ud == 0) {
      numel = 0;
    } else if (numel > std::numeric_limits<std::uint64_t>::max() / ud) {
      throw fault::CorruptionError("serialize: tensor element count overflows");
    } else {
      numel *= ud;
    }
    shape.push_back(d);
  }
  CheckClaimedSize(in, numel * sizeof(float), "tensor payload");
  tensor::Tensor t(shape);
  auto data = t.data();
  in.read(reinterpret_cast<char*>(data.data()),
          static_cast<std::streamsize>(data.size() * sizeof(float)));
  if (!in) throw fault::CorruptionError("serialize: truncated tensor data");
  return t;
}

void WriteParameters(std::ostream& out, Module& module) {
  const auto params = module.Parameters();
  WritePod<std::uint32_t>(out, static_cast<std::uint32_t>(params.size()));
  for (const auto* p : params) WriteTensor(out, p->value());
}

void ReadParameters(std::istream& in, Module& module) {
  const auto params = module.Parameters();
  const auto count = ReadPod<std::uint32_t>(in);
  if (count != params.size()) {
    throw fault::CorruptionError("serialize: parameter count mismatch");
  }
  std::vector<tensor::Tensor> loaded;
  loaded.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) loaded.push_back(ReadTensor(in));
  module.RestoreParameters(loaded);  // validates shapes
}

void WriteString(std::ostream& out, const std::string& s) {
  WritePod<std::uint32_t>(out, static_cast<std::uint32_t>(s.size()));
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string ReadString(std::istream& in) {
  const auto len = ReadPod<std::uint32_t>(in);
  if (len > (1u << 20)) {
    throw fault::CorruptionError("serialize: implausible string length");
  }
  CheckClaimedSize(in, len, "string");
  std::string s(len, '\0');
  in.read(s.data(), static_cast<std::streamsize>(len));
  if (!in) throw fault::CorruptionError("serialize: truncated string");
  return s;
}

void WriteStateDict(std::ostream& out, Module& module) {
  const auto named = module.NamedParameters();
  WritePod<std::uint32_t>(out, static_cast<std::uint32_t>(named.size()));
  for (const NamedParameter& p : named) {
    WriteString(out, p.name);
    WriteTensor(out, p.variable->value());
  }
}

void ReadStateDict(std::istream& in, Module& module) {
  const auto named = module.NamedParameters();
  std::unordered_map<std::string, autograd::Variable*> by_name;
  by_name.reserve(named.size());
  for (const NamedParameter& p : named) {
    if (!by_name.emplace(p.name, p.variable).second) {
      throw fault::CorruptionError("serialize: duplicate parameter name " + p.name);
    }
  }
  const auto count = ReadPod<std::uint32_t>(in);
  if (count != named.size()) {
    throw fault::CorruptionError("serialize: state dict has " + std::to_string(count) +
                                 " parameters, module expects " +
                                 std::to_string(named.size()));
  }
  // Stage into a scratch map first so a mid-stream failure leaves the module
  // untouched.
  std::unordered_map<std::string, tensor::Tensor> loaded;
  loaded.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string name = ReadString(in);
    tensor::Tensor t = ReadTensor(in);
    const auto it = by_name.find(name);
    if (it == by_name.end()) {
      throw fault::CorruptionError("serialize: unexpected parameter " + name +
                                   " in state dict");
    }
    if (!it->second->value().SameShape(t)) {
      throw fault::CorruptionError("serialize: shape mismatch for parameter " + name);
    }
    if (!loaded.emplace(std::move(name), std::move(t)).second) {
      throw fault::CorruptionError("serialize: state dict repeats a parameter");
    }
  }
  for (const NamedParameter& p : named) {
    p.variable->mutable_value() = loaded.at(p.name);
  }
  BumpParameterEpoch();  // cached packed weights must repack
}

void SaveParameters(const std::string& path, Module& module) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw fault::IoError("serialize: cannot open " + path + " for writing");
  WriteParameters(out, module);
  if (!out) throw fault::IoError("serialize: write failed for " + path);
}

void LoadParameters(const std::string& path, Module& module) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw fault::IoError("serialize: cannot open " + path);
  ReadParameters(in, module);
}

}  // namespace predtop::nn
