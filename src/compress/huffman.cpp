#include "compress/huffman.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <queue>

#include "common/simd.hpp"

namespace lck {

std::vector<std::uint64_t> count_frequencies(
    std::span<const std::uint32_t> symbols, std::size_t alphabet) {
  // Eight interleaved partial histograms via the dispatched kernel table:
  // consecutive symbols update different counter arrays, so equal
  // neighbouring symbols (the common case in quantization-code streams) no
  // longer chain through the same memory location. Merged at the end
  // (integer sums are order-independent, so every backend returns identical
  // counts; the merge loop auto-vectorizes under the active ISA's flags).
  const auto& o = simd::ops();
  std::vector<std::uint64_t> part(8 * alphabet, 0);
  o.hist8(symbols.data(), symbols.size(), part.data(), alphabet);
  std::vector<std::uint64_t> freq(alphabet, 0);
  o.hist8_merge(part.data(), alphabet, freq.data());
  return freq;
}

namespace {

/// One pass of Huffman tree construction; returns code lengths (possibly
/// exceeding kHuffmanMaxBits for extreme distributions).
std::vector<std::uint8_t> build_lengths_once(
    std::span<const std::uint64_t> freqs) {
  const std::size_t n = freqs.size();
  struct Node {
    std::uint64_t freq;
    std::int32_t left, right;  // -1 for leaves
    std::uint32_t symbol;
  };
  std::vector<Node> nodes;
  nodes.reserve(2 * n);
  using Entry = std::pair<std::uint64_t, std::uint32_t>;  // (freq, node idx)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;

  for (std::size_t s = 0; s < n; ++s) {
    if (freqs[s] == 0) continue;
    nodes.push_back({freqs[s], -1, -1, static_cast<std::uint32_t>(s)});
    heap.emplace(freqs[s], static_cast<std::uint32_t>(nodes.size() - 1));
  }

  std::vector<std::uint8_t> lengths(n, 0);
  if (nodes.empty()) return lengths;
  if (nodes.size() == 1) {
    lengths[nodes[0].symbol] = 1;  // degenerate alphabet: 1-bit code
    return lengths;
  }

  while (heap.size() > 1) {
    const auto [fa, a] = heap.top();
    heap.pop();
    const auto [fb, b] = heap.top();
    heap.pop();
    nodes.push_back({fa + fb, static_cast<std::int32_t>(a),
                     static_cast<std::int32_t>(b), 0});
    heap.emplace(fa + fb, static_cast<std::uint32_t>(nodes.size() - 1));
  }

  // Depth-first traversal assigning depths as code lengths.
  struct Frame {
    std::uint32_t node;
    std::uint8_t depth;
  };
  std::vector<Frame> stack{{static_cast<std::uint32_t>(nodes.size() - 1), 0}};
  while (!stack.empty()) {
    const auto [idx, depth] = stack.back();
    stack.pop_back();
    const Node& nd = nodes[idx];
    if (nd.left < 0) {
      lengths[nd.symbol] = std::max<std::uint8_t>(depth, 1);
    } else {
      stack.push_back({static_cast<std::uint32_t>(nd.left),
                       static_cast<std::uint8_t>(depth + 1)});
      stack.push_back({static_cast<std::uint32_t>(nd.right),
                       static_cast<std::uint8_t>(depth + 1)});
    }
  }
  return lengths;
}

}  // namespace

std::vector<std::uint8_t> huffman_code_lengths(
    std::span<const std::uint64_t> freqs) {
  std::vector<std::uint64_t> f(freqs.begin(), freqs.end());
  for (int attempt = 0; attempt < 64; ++attempt) {
    auto lengths = build_lengths_once(f);
    const auto max_len =
        *std::max_element(lengths.begin(), lengths.end());
    if (max_len <= kHuffmanMaxBits) return lengths;
    // Flatten the distribution and retry: halving frequencies (keeping them
    // nonzero) reduces the maximum depth geometrically.
    for (auto& x : f)
      if (x > 0) x = (x + 1) / 2;
  }
  throw corrupt_stream_error("huffman: failed to limit code length");
}

HuffmanEncoder::HuffmanEncoder(std::span<const std::uint8_t> lengths)
    : codes_(lengths.size(), 0), lengths_(lengths.begin(), lengths.end()) {
  // Canonical code assignment: count codes per length, then first-code rule.
  std::vector<std::uint32_t> count(kHuffmanMaxBits + 1, 0);
  for (const auto l : lengths_) ++count[l];
  count[0] = 0;
  std::vector<std::uint32_t> next(kHuffmanMaxBits + 2, 0);
  std::uint32_t code = 0;
  for (unsigned len = 1; len <= kHuffmanMaxBits; ++len) {
    code = (code + count[len - 1]) << 1;
    next[len] = code;
  }
  for (std::size_t s = 0; s < lengths_.size(); ++s)
    if (lengths_[s] != 0) codes_[s] = next[lengths_[s]]++;
}

namespace {

/// Call f(symbol, length) for every symbol with a nonzero code length, in
/// symbol order. Zero lengths are skipped eight at a time: an SZ table
/// holds a few hundred codes among 65,536 symbols.
template <typename F>
void for_each_code(std::span<const std::uint8_t> lengths, F&& f) {
  const std::size_t n = lengths.size();
  std::size_t s = 0;
  for (; s + 8 <= n; s += 8) {
    std::uint64_t word;
    std::memcpy(&word, lengths.data() + s, sizeof(word));
    if (word == 0) continue;
    for (std::size_t k = s; k < s + 8; ++k)
      if (lengths[k] != 0) f(k, lengths[k]);
  }
  for (; s < n; ++s)
    if (lengths[s] != 0) f(s, lengths[s]);
}

}  // namespace

HuffmanDecoder::HuffmanDecoder(std::span<const std::uint8_t> lengths) {
  if (lengths.size() >= (std::size_t{1} << 27))
    throw corrupt_stream_error("huffman: alphabet too large");
  // Counting pass: codes per length.
  std::array<std::uint32_t, 256> count{};
  for_each_code(lengths, [&](std::size_t, unsigned len) { ++count[len]; });
  for (unsigned len = 1; len < count.size(); ++len)
    if (count[len] != 0) max_len_ = len;
  if (max_len_ > kHuffmanMaxBits)
    throw corrupt_stream_error("huffman: code length exceeds limit");

  std::uint32_t code = 0;
  std::uint32_t index = 0;
  for (unsigned len = 1; len <= max_len_; ++len) {
    code = (code + groups_[len - 1].count) << 1;
    groups_[len] = {code, index, count[len]};
    index += count[len];
  }

  // Placing pass: symbols sorted by (length, symbol), the canonical order.
  symbols_.resize(index);
  std::array<std::uint32_t, kHuffmanMaxBits + 1> next{};
  for (unsigned len = 1; len <= max_len_; ++len)
    next[len] = groups_[len].first_index;
  for_each_code(lengths, [&](std::size_t s, unsigned len) {
    symbols_[next[len]++] = static_cast<std::uint32_t>(s);
  });

  // Each entry holds the walk's answer for its prefix. Longest length
  // first, so a shorter code owns any prefix two lengths could share, as in
  // the walk. Codes of an over-subscribed group that reach 2^len fit no
  // len-bit prefix, and a group whose first_code + count wraps around 32
  // bits matches nothing, as in the walk.
  for (unsigned len = std::min(max_len_, kLookupBits); len >= 1; --len) {
    const LengthGroup& g = groups_[len];
    const std::uint32_t end =
        std::min<std::uint32_t>(g.first_code + g.count, 1u << len);
    const unsigned fill = kLookupBits - len;
    for (std::uint32_t c = g.first_code; c < end; ++c)
      std::fill_n(table_.begin() + (std::size_t{c} << fill),
                  std::size_t{1} << fill,
                  (symbols_[g.first_index + (c - g.first_code)] << 5) | len);
  }
}

std::uint32_t HuffmanDecoder::walk(BitReader& br) const {
  std::uint32_t code = 0;
  for (unsigned len = 1; len <= max_len_; ++len) {
    code = (code << 1) | br.read_bit();
    const LengthGroup& g = groups_[len];
    if (g.count != 0 && code < g.first_code + g.count && code >= g.first_code)
      return symbols_[g.first_index + (code - g.first_code)];
  }
  throw corrupt_stream_error("huffman: invalid code");
}

void write_code_lengths(ByteWriter& out, std::span<const std::uint8_t> lengths) {
  // Encoding: sequence of tokens. 0x00 LL LL = run of zeros (u16 count);
  // otherwise the byte is the length itself (1..kHuffmanMaxBits).
  out.put(static_cast<std::uint32_t>(lengths.size()));
  std::size_t i = 0;
  while (i < lengths.size()) {
    if (lengths[i] == 0) {
      std::size_t run = 0;
      while (i + run < lengths.size() && lengths[i + run] == 0 && run < 0xffff)
        ++run;
      out.put(static_cast<std::uint8_t>(0));
      out.put(static_cast<std::uint16_t>(run));
      i += run;
    } else {
      out.put(lengths[i]);
      ++i;
    }
  }
}

std::vector<std::uint8_t> read_code_lengths(ByteReader& in,
                                            std::size_t alphabet) {
  const auto n = in.get<std::uint32_t>();
  if (n != alphabet)
    throw corrupt_stream_error("huffman: alphabet size mismatch");
  std::vector<std::uint8_t> lengths(n, 0);
  std::size_t i = 0;
  while (i < n) {
    const auto b = in.get<std::uint8_t>();
    if (b == 0) {
      const auto run = in.get<std::uint16_t>();
      if (i + run > n) throw corrupt_stream_error("huffman: zero run overflow");
      i += run;
    } else {
      if (b > kHuffmanMaxBits)
        throw corrupt_stream_error("huffman: stored length too large");
      lengths[i++] = b;
    }
  }
  return lengths;
}

}  // namespace lck
