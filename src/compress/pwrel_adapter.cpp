#include "compress/pwrel_adapter.hpp"

#include "common/byte_buffer.hpp"
#include "compress/exact_array.hpp"

namespace lck {
namespace {

// "PRL2": v2 streams encode the exact array compactly (nonzero bitset +
// nonzero values) so sparse fields are not pinned at ratio ≈ 1 by zeros.
constexpr std::uint32_t kMagic = 0x324c5250u;

}  // namespace

std::vector<byte_t> PointwiseRelativeAdapter::compress(
    std::span<const double> data) const {
  ByteWriter out;
  out.put(kMagic);
  out.put(static_cast<std::uint64_t>(data.size()));
  out.put(eb_.value);
  const auto logs = write_log_transform(out, data, eb_.value);
  const auto inner_stream = inner_->compress(logs);
  out.put(static_cast<std::uint64_t>(inner_stream.size()));
  out.put_bytes(inner_stream);
  return std::move(out).take();
}

void PointwiseRelativeAdapter::set_error_bound(ErrorBound eb) {
  LossyCompressor::set_error_bound(eb);
  inner_->set_error_bound(ErrorBound::absolute(log_transform_bound(eb.value)));
}

void PointwiseRelativeAdapter::decompress(std::span<const byte_t> stream,
                                          std::span<double> out) const {
  ByteReader in(stream);
  if (in.get<std::uint32_t>() != kMagic)
    throw corrupt_stream_error("pwrel: bad magic");
  const auto n = in.get<std::uint64_t>();
  if (n != out.size()) throw corrupt_stream_error("pwrel: size mismatch");
  (void)in.get<double>();  // eb (informational)
  LogTransformReader logs(in, n);
  const auto inner_size = in.get<std::uint64_t>();
  inner_->decompress(in.get_bytes(inner_size), logs.logs());
  logs.restore(out);
}

}  // namespace lck
