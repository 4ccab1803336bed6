// Persistent tuning cache: measured plans keyed by (machine signature,
// grid shape, operator, variant constraint), stored as one JSON file so
// repeat runs skip every timed probe and the artifact is diffable /
// hand-editable.
//
// Invalidation is wholesale: the file records the signature of the
// machine that measured its plans, and loading on a machine with a
// different signature discards everything (a plan tuned for another
// cache hierarchy is worse than no plan).  The file is read with
// util::json.  A missing file is an empty cache; so is a file that does
// not parse to an object, after a warning naming its line:col and one
// tune.cache.invalidated tick.  A wrong-typed, out-of-range or
// inadmissible entry is skipped without costing the rest.  save() writes
// <path>.tmp and renames it over the cache, so a crash mid-save leaves
// the previous file intact.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "topo/machine.hpp"
#include "tune/plan.hpp"

namespace tb::tune {

/// Stable identity of a machine for cache keying: topology and cache
/// capacities (the spec fields host_machine() detects deterministically).
[[nodiscard]] std::string machine_signature(const topo::MachineSpec& spec);

/// $TB_TUNE_CACHE when set, else "tb_tuning_cache.json" in the working
/// directory.
[[nodiscard]] std::string default_cache_path();

class TuningCache {
 public:
  TuningCache(std::string path, std::string signature)
      : path_(std::move(path)), signature_(std::move(signature)) {}

  /// Loads entries from disk; returns the number of usable entries.
  /// Missing file, malformed JSON or a machine-signature mismatch all
  /// leave the cache empty.  Never throws.
  std::size_t load();

  /// Writes the cache (signature + all entries) to its path, atomically
  /// via <path>.tmp.  Returns false after printing a warning when the
  /// file cannot be written.
  [[nodiscard]] bool save() const;

  [[nodiscard]] std::optional<Candidate> find(const Problem& key) const;

  /// Inserts or replaces the plan for `key`.
  void put(const Problem& key, const Candidate& plan);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] const std::string& signature() const { return signature_; }

 private:
  struct Entry {
    Problem key;
    Candidate plan;
  };

  std::string path_;
  std::string signature_;
  std::vector<Entry> entries_;
};

}  // namespace tb::tune
