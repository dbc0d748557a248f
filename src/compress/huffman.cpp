#include "compress/huffman.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
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

/// Call f(symbol, freq) for every symbol with a nonzero frequency, in symbol
/// order. Zero counts are skipped eight at a time, as in for_each_code.
template <typename F>
void for_each_present(std::span<const std::uint64_t> freqs, F&& f) {
  const std::size_t n = freqs.size();
  std::size_t s = 0;
  for (; s + 8 <= n; s += 8) {
    std::uint64_t any = 0;
    for (std::size_t k = s; k < s + 8; ++k) any |= freqs[k];
    if (any == 0) continue;
    for (std::size_t k = s; k < s + 8; ++k)
      if (freqs[k] != 0) f(k, freqs[k]);
  }
  for (; s < n; ++s)
    if (freqs[s] != 0) f(s, freqs[s]);
}

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

/// Length of the run of zero lengths starting at `i`, at most 0xffff (one
/// u16 token), measured eight bytes at a time.
std::size_t zero_run(std::span<const std::uint8_t> lengths, std::size_t i) {
  const std::size_t limit =
      std::min<std::size_t>(lengths.size() - i, 0xffff);
  std::size_t run = 0;
  for (; run + 8 <= limit; run += 8) {
    std::uint64_t word;
    std::memcpy(&word, lengths.data() + i + run, sizeof(word));
    if (word != 0)
      return run + static_cast<std::size_t>(
                       (std::endian::native == std::endian::little
                            ? std::countr_zero(word)
                            : std::countl_zero(word)) /
                       8);
  }
  while (run < limit && lengths[i + run] == 0) ++run;
  return run;
}

/// One pass of Huffman tree construction over `freqs` (at least two, all
/// nonzero): returns the depth of every leaf, possibly exceeding
/// kHuffmanMaxBits for extreme distributions. Leaf k is node k and the j-th
/// merge appends node freqs.size() + j; the heap pops the least
/// (frequency, node) pair, so ties go to the lower node.
std::vector<std::uint32_t> leaf_depths(std::span<const std::uint64_t> freqs) {
  const std::size_t m = freqs.size();
  using Entry = std::pair<std::uint64_t, std::uint32_t>;  // (freq, node)
  std::vector<Entry> leaves;
  leaves.reserve(m);
  for (std::size_t k = 0; k < m; ++k)
    leaves.emplace_back(freqs[k], static_cast<std::uint32_t>(k));
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap(
      std::greater<>{}, std::move(leaves));

  std::vector<std::uint32_t> up(2 * m - 1);  // parent of each node but the root
  auto node = static_cast<std::uint32_t>(m);
  while (heap.size() > 1) {
    const auto [fa, a] = heap.top();
    heap.pop();
    const auto [fb, b] = heap.top();
    heap.pop();
    up[a] = up[b] = node;
    heap.emplace(fa + fb, node++);
  }

  // A parent is appended after its children, so walking down from the root
  // sets each node's parent depth before its own.
  std::vector<std::uint32_t> depth(2 * m - 1, 0);
  for (std::size_t v = 2 * m - 2; v-- > 0;) depth[v] = depth[up[v]] + 1;
  depth.resize(m);
  return depth;
}

}  // namespace

std::vector<std::uint8_t> huffman_code_lengths(
    std::span<const std::uint64_t> freqs) {
  std::vector<std::uint32_t> symbols;  // the present symbols, in order
  std::vector<std::uint64_t> f;        // and their frequencies
  for_each_present(freqs, [&](std::size_t s, std::uint64_t x) {
    symbols.push_back(static_cast<std::uint32_t>(s));
    f.push_back(x);
  });
  std::vector<std::uint8_t> lengths(freqs.size(), 0);
  if (symbols.size() == 1) lengths[symbols[0]] = 1;  // degenerate: 1-bit code
  if (symbols.size() <= 1) return lengths;
  for (int attempt = 0; attempt < 64; ++attempt) {
    const auto depth = leaf_depths(f);
    if (*std::max_element(depth.begin(), depth.end()) <= kHuffmanMaxBits) {
      for (std::size_t k = 0; k < symbols.size(); ++k)
        lengths[symbols[k]] = static_cast<std::uint8_t>(depth[k]);
      return lengths;
    }
    // Flatten the distribution and retry: halving frequencies (keeping them
    // nonzero) reduces the maximum depth geometrically.
    for (auto& x : f) x = (x + 1) / 2;
  }
  throw corrupt_stream_error("huffman: failed to limit code length");
}

HuffmanEncoder::HuffmanEncoder(std::span<const std::uint8_t> lengths)
    : codes_(lengths.size(), 0), lengths_(lengths.begin(), lengths.end()) {
  // Canonical code assignment: count codes per length, then first-code rule.
  std::array<std::uint32_t, 256> count{};
  for_each_code(lengths, [&](std::size_t, unsigned len) { ++count[len]; });
  std::array<std::uint32_t, 256> next{};
  std::uint32_t code = 0;
  for (unsigned len = 1; len <= kHuffmanMaxBits; ++len) {
    code = (code + count[len - 1]) << 1;
    next[len] = code;
  }
  for_each_code(lengths,
                [&](std::size_t s, unsigned len) { codes_[s] = next[len]++; });
}

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
      const std::size_t run = zero_run(lengths, i);
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
