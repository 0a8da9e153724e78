// Per-node local storage engine for the replicated key-value substrate.
//
// A versioned last-writer-wins map with tombstones: the minimum machinery a
// Dynamo/memcached-class store needs for quorum replication and
// read-repair. Versions are assigned by the cluster's logical clock; an
// apply with a version not newer than the stored one is a no-op (idempotent
// replay, reordering tolerance).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>

#include "cluster/types.h"

namespace scp {

class StorageEngine {
 public:
  struct Entry {
    std::string value;
    std::uint64_t version = 0;
    bool tombstone = false;
  };

  /// Applies a write. Returns true iff the write was newer than the stored
  /// version (strictly greater) and therefore took effect.
  bool apply_put(KeyId key, std::string value, std::uint64_t version);

  /// Applies a delete as a tombstone with the given version. Returns true
  /// iff it took effect.
  bool apply_erase(KeyId key, std::uint64_t version);

  /// Live value lookup: nullopt for absent or tombstoned keys.
  std::optional<std::string> get(KeyId key) const;

  /// Full entry lookup including tombstones (for replication/repair).
  std::optional<Entry> get_entry(KeyId key) const;

  /// Number of live (non-tombstone) keys.
  std::size_t live_count() const noexcept { return live_count_; }
  /// Number of entries including tombstones.
  std::size_t entry_count() const noexcept { return entries_.size(); }
  /// Approximate payload bytes of live values.
  std::size_t bytes_used() const noexcept { return bytes_used_; }

  /// Visits every entry (including tombstones) — anti-entropy driver.
  void for_each_entry(
      const std::function<void(KeyId, const Entry&)>& visit) const;

  /// Pre-sizes the map for `entries` keys (a bulk load's expected count).
  void reserve(std::size_t entries) { entries_.reserve(entries); }

  /// Drops everything (simulates a node wiped by a crash).
  void clear();

 private:
  std::unordered_map<KeyId, Entry> entries_;
  std::size_t live_count_ = 0;
  std::size_t bytes_used_ = 0;
};

}  // namespace scp
