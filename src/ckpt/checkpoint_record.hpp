#pragma once
/// \file checkpoint_record.hpp
/// \brief Accounting record shared by the sync and async checkpoint paths.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

namespace lck {

/// Accounting for one checkpoint or recovery, consumed by the virtual-time
/// PFS model (sizes) and by the real-time measurements (seconds).
struct CheckpointRecord {
  int version = -1;
  std::size_t raw_bytes = 0;         ///< Sum of uncompressed payloads.
  std::size_t stored_bytes = 0;      ///< Bytes actually written/read. For a
                                     ///< delta-chain recovery: total bytes
                                     ///< read across the whole chain.
  double compress_seconds = 0.0;     ///< Real local (de)compression time.
  /// Stored size by variable name (checkpoints only).
  std::map<std::string, std::size_t> per_var_bytes;

  // ----- delta checkpoints ----------------------------------------------------
  /// Base version this checkpoint's references resolve against, or -1 for a
  /// full checkpoint.
  int base_version = -1;
  /// Deltas between this version and the chain's full checkpoint (0 = full).
  std::uint32_t chain_len = 0;
  /// Chunk frames across all vector variables: counted for delta-mode
  /// checkpoints (0 otherwise) and for every recovery's top stream.
  std::size_t chunks = 0;
  /// Chunks stored (or read) as references instead of payload bytes.
  std::size_t chunks_deduped = 0;
};

}  // namespace lck
