#pragma once
/// \file lossless_compressors.hpp
/// \brief The lossless codecs: one byte coder (RLE or deflate-like) over
///        the raw double array, optionally byte-shuffled first.
///
/// One class implements all four names: "rle", "shuffle-rle", "deflate"
/// (LZ77 + Huffman, the gzip stand-in of the paper's lossless scheme) and
/// "shuffle-deflate". Each name is one row of a table that fixes its stream
/// magic; a stream is magic:u32 n:u64 [shuffle:u8] enc_size:u64 enc, where
/// the shuffle flag is present for the deflate rows only.

#include <memory>

#include "compress/compressor.hpp"

namespace lck {

/// The lossless codec called `name`, or nullptr when no row has that name.
[[nodiscard]] std::unique_ptr<Compressor> make_lossless_compressor(
    const std::string& name);

}  // namespace lck
