// Snapshot subsystem: serialize a PreparedGraph's artifacts once (offline),
// mmap them back at serve time (DESIGN.md Section 3).
//
// The paper's algorithms split into an expensive query-independent
// preparation (vertex order + oriented DAG, edge communities,
// community-degeneracy edge order — Section 4 / Algorithms 1 & 3) and cheap
// per-k searches. PreparedGraph exploits that in-process; a snapshot makes
// the split durable:
//
//   // offline, once
//   PreparedGraph engine(g, opts);
//   snapshot::write("g.c3snap", engine);   // forces prepare(), serializes
//
//   // online, per serving process
//   auto snap = snapshot::Snapshot::open("g.c3snap");
//   snap.engine().count(7);                // preprocess_seconds == 0
//
// open() maps the file read-only and constructs a PreparedGraph whose graph
// and artifacts are *views over the mapping* — no arrays are copied, no
// artifact is rebuilt, startup is O(1) page-table work instead of O(file).
// Pages fault in on first touch and are shared clean across every process
// serving the same snapshot.
//
// Integrity: a snapshot refuses to load — std::runtime_error naming the
// offending section/offset — on bad magic, a foreign format or artifact-
// schema version, an ABI mismatch (node_t/edge_t width), a truncated file,
// a section out of bounds, a checksum mismatch, or (via the expected-options
// overload) an algorithm/options fingerprint mismatch.
//
// Lifetime contract: the mapping lives inside the Snapshot object, and the
// Graph and PreparedGraph handed out by graph()/engine() borrow it. Neither
// may outlive the Snapshot; copy the Graph (a deep copy) if it must.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "clique/common.hpp"
#include "clique/engine.hpp"
#include "graph/graph.hpp"
#include "snapshot/format.hpp"

namespace c3::snapshot {

struct SnapshotOpenOptions {
  /// Verify every section's FNV checksum at open. One linear scan of the
  /// file — far cheaper than rebuilding artifacts, but not O(1); serving
  /// fleets that trust their artifact store can turn it off.
  bool verify_checksums = true;
  /// Warm-up hint: madvise(WILLNEED) the mapping at open, so the kernel
  /// reads the file ahead instead of demand-faulting one page at a time on
  /// the first queries. Best-effort, no-op where unsupported.
  bool prefault = false;
  /// Pin the mapping into RAM (mlock) after validation, so serving never
  /// takes a major fault. Best-effort — a refusal (e.g. RLIMIT_MEMLOCK) is
  /// reported through Snapshot::memory_locked(), not an error.
  bool lock_memory = false;
  /// Read the file into a heap buffer instead of mmap-ing it — the path
  /// platforms without mmap always take. On the heap the page-granular
  /// warm-up hints degrade explicitly: prefault is a no-op (the buffer is
  /// already resident) and lock_memory reports false through
  /// memory_locked() (mlock wants a page-aligned mapping). Mostly a testing
  /// knob; also useful when a private copy should survive file replacement.
  bool force_heap_fallback = false;
};

/// One section as recorded in the file (for inspect/tooling output).
struct SectionInfo {
  std::string name;
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
  std::uint64_t count = 0;
  std::uint64_t checksum = 0;
};

/// Parsed header of a snapshot file.
struct SnapshotInfo {
  std::uint32_t format_version = 0;
  std::uint32_t artifact_schema = 0;
  std::uint64_t file_bytes = 0;
  std::uint64_t num_nodes = 0;
  std::uint64_t num_edges = 0;
  CliqueOptions options;          // the writing engine's fingerprint
  std::uint32_t artifact_mask = 0;
  std::vector<SectionInfo> sections;

  [[nodiscard]] bool has(ArtifactBit bit) const noexcept { return (artifact_mask & bit) != 0; }
};

/// Serializes `engine`'s graph plus every built artifact into one snapshot
/// file. Forces preparation first (prepare() and the clique-number upper
/// bound artifact), so an engine loaded from the snapshot answers *every*
/// query — counts, listings, spectrum, max-clique — with
/// preprocess_seconds == 0. Throws std::runtime_error on I/O failure.
void write(const std::filesystem::path& path, const PreparedGraph& engine);

/// Header + section-table summary without loading any artifact (reads and
/// validates the header only; section payloads are not checksummed).
[[nodiscard]] SnapshotInfo inspect(const std::filesystem::path& path);

/// An open snapshot: the read-only mapping plus the Graph and PreparedGraph
/// constructed over it. Move-only; destroying it unmaps the file.
class Snapshot {
 public:
  /// Maps `path` and constructs the engine with the options recorded in the
  /// snapshot. Throws std::runtime_error on any validation failure.
  [[nodiscard]] static Snapshot open(const std::filesystem::path& path,
                                     const SnapshotOpenOptions& opts = {});

  /// As above, but refuses (std::runtime_error naming the field) when the
  /// snapshot's artifact fingerprint — algorithm, vertex/edge order kinds,
  /// eps, order seed — differs from `expected`. The runtime-only field of
  /// `expected` (distance_pruning) overrides the stored one, so a serving
  /// process can flip it without re-preparing.
  [[nodiscard]] static Snapshot open(const std::filesystem::path& path,
                                     const CliqueOptions& expected,
                                     const SnapshotOpenOptions& opts = {});

  Snapshot(Snapshot&&) noexcept;
  Snapshot& operator=(Snapshot&&) noexcept;
  ~Snapshot();

  /// The snapshot's graph, backed by the mapping (valid while this Snapshot
  /// lives). Copying it detaches: `Graph owned = snap.graph();`.
  [[nodiscard]] const Graph& graph() const noexcept;

  /// The loaded engine: every artifact installed, nothing ever rebuilt.
  [[nodiscard]] const PreparedGraph& engine() const noexcept;
  [[nodiscard]] PreparedGraph& engine() noexcept;

  [[nodiscard]] const SnapshotInfo& info() const noexcept;

  /// True when SnapshotOpenOptions::lock_memory was requested *and* the
  /// mlock succeeded (it is best-effort: RLIMIT_MEMLOCK or an unsupported
  /// platform degrade to an unpinned mapping).
  [[nodiscard]] bool memory_locked() const noexcept;

 private:
  Snapshot();
  [[nodiscard]] static Snapshot open_with(const std::filesystem::path& path,
                                          const CliqueOptions* expected,
                                          const SnapshotOpenOptions& opts);
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace c3::snapshot
