// On-disk layout of a PreparedGraph snapshot (DESIGN.md Section 3).
//
// A snapshot is one relocatable binary file:
//
//   [ SnapshotHeader | SectionRecord x section_count | pad | section 0 | pad
//     | section 1 | ... ]
//
// The header carries the magic, format version, an algorithm/options
// fingerprint (everything that determines the *content* of the artifacts),
// the graph shape, the scalar artifacts (exact degeneracy, sigma, rounds),
// and a checksum over itself plus the section table. Each section is one
// flat array of a trivially-copyable element type, 64-byte aligned in the
// file, with its own FNV-1a checksum. All integers are in native byte order;
// the header records sizeof(node_t)/sizeof(edge_t) so a snapshot written by
// an incompatible build is refused rather than misread.
//
// Versioning rules:
//  * kFormatVersion changes when the file layout changes (header fields,
//    section encoding). Readers refuse other versions.
//  * kArtifactSchema changes when the *meaning* of a serialized artifact
//    changes (e.g. a different community ordering for the same options) —
//    the artifacts would still parse but would no longer match what the
//    current code builds, so readers refuse a mismatch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "graph/types.hpp"

namespace c3::snapshot {

inline constexpr char kMagic[8] = {'c', '3', 's', 'n', 'a', 'p', '0', '1'};
inline constexpr std::uint32_t kFormatVersion = 1;
inline constexpr std::uint32_t kArtifactSchema = 1;

/// Every section offset (and the first section's start) is aligned to this,
/// so pointers into the page-aligned mapping are aligned for any element.
inline constexpr std::uint64_t kSectionAlign = 64;

/// Which artifacts the snapshot carries (SnapshotHeader::artifact_mask).
enum ArtifactBit : std::uint32_t {
  kArtifactDag = 1u << 0,
  kArtifactCommunities = 1u << 1,
  kArtifactEdgeOrder = 1u << 2,
  kArtifactExactDegeneracy = 1u << 3,
};

/// Section kinds. The graph sections are always present; artifact sections
/// only when the matching ArtifactBit is set.
enum class SectionKind : std::uint32_t {
  GraphOffsets = 0,      // edge_t, n+1
  GraphAdjacency = 1,    // node_t, 2m
  GraphEdgeIds = 2,      // edge_t, 2m
  GraphEndpoints = 3,    // Edge,   m
  DagOutOffsets = 4,     // edge_t, n+1
  DagOutAdjacency = 5,   // node_t, m
  DagInOffsets = 6,      // edge_t, n+1
  DagInAdjacency = 7,    // node_t, m
  DagArcSources = 8,     // node_t, m
  DagRankToOriginal = 9, // node_t, n
  CommOffsets = 10,      // edge_t, m+1
  CommMembers = 11,      // node_t, T
  EdgeOrderOrder = 12,   // edge_t, m
  EdgeOrderPos = 13,     // edge_t, m
  EdgeOrderCandOffsets = 14,  // edge_t, m+1
  EdgeOrderCandMembers = 15,  // node_t, T
};

[[nodiscard]] constexpr const char* section_name(SectionKind kind) noexcept {
  switch (kind) {
    case SectionKind::GraphOffsets: return "graph.offsets";
    case SectionKind::GraphAdjacency: return "graph.adjacency";
    case SectionKind::GraphEdgeIds: return "graph.edge_ids";
    case SectionKind::GraphEndpoints: return "graph.endpoints";
    case SectionKind::DagOutOffsets: return "dag.out_offsets";
    case SectionKind::DagOutAdjacency: return "dag.out_adjacency";
    case SectionKind::DagInOffsets: return "dag.in_offsets";
    case SectionKind::DagInAdjacency: return "dag.in_adjacency";
    case SectionKind::DagArcSources: return "dag.arc_sources";
    case SectionKind::DagRankToOriginal: return "dag.rank_to_original";
    case SectionKind::CommOffsets: return "communities.offsets";
    case SectionKind::CommMembers: return "communities.members";
    case SectionKind::EdgeOrderOrder: return "edge_order.order";
    case SectionKind::EdgeOrderPos: return "edge_order.pos";
    case SectionKind::EdgeOrderCandOffsets: return "edge_order.candidate_offsets";
    case SectionKind::EdgeOrderCandMembers: return "edge_order.candidate_members";
  }
  return "unknown";
}

/// One flat array in the file. `offset` is from the start of the file and is
/// kSectionAlign-aligned; `count` is in elements of `elem_bytes` each.
struct SectionRecord {
  std::uint32_t kind = 0;        // SectionKind
  std::uint32_t elem_bytes = 0;  // sizeof the element type
  std::uint64_t offset = 0;
  std::uint64_t count = 0;
  std::uint64_t checksum = 0;    // fnv1a64 over the payload bytes
};
static_assert(sizeof(SectionRecord) == 32);

/// Fixed-size file header, written verbatim. `header_checksum` is fnv1a64
/// over the header (with this field zeroed) followed by the section table.
struct SnapshotHeader {
  char magic[8] = {};
  std::uint32_t format_version = 0;
  std::uint32_t artifact_schema = 0;
  std::uint32_t header_bytes = 0;   // sizeof(SnapshotHeader)
  std::uint32_t node_bytes = 0;     // sizeof(node_t) of the writing build
  std::uint32_t edge_bytes = 0;     // sizeof(edge_t) of the writing build
  std::uint32_t section_count = 0;
  std::uint64_t file_bytes = 0;     // total file size, for truncation checks

  // Fingerprint: the CliqueOptions fields that determine artifact content.
  std::uint32_t algorithm = 0;      // c3::Algorithm
  std::uint32_t vertex_order = 0;   // c3::VertexOrderKind
  std::uint32_t edge_order_kind = 0;  // c3::EdgeOrderKind
  std::uint32_t option_flags = 0;   // bit 0: distance_pruning, bit 1: retired
  std::uint64_t eps_bits = 0;       // bit pattern of CliqueOptions::eps
  std::uint64_t order_seed = 0;

  // Graph shape.
  std::uint64_t num_nodes = 0;
  std::uint64_t num_edges = 0;

  // Which artifacts are present, plus the scalar ones inline.
  std::uint32_t artifact_mask = 0;
  std::uint32_t exact_degeneracy = 0;    // valid iff kArtifactExactDegeneracy
  std::uint32_t edge_order_sigma = 0;    // valid iff kArtifactEdgeOrder
  std::uint32_t edge_order_rounds = 0;   // valid iff kArtifactEdgeOrder

  std::uint64_t header_checksum = 0;
};
static_assert(sizeof(SnapshotHeader) == 112);

inline constexpr std::uint32_t kOptionDistancePruning = 1u << 0;
/// Bit 1 recorded triangle_growth, a search-only option since removed; no
/// artifact depended on it. Readers ignore it and writers leave it clear, so
/// a snapshot that sets it still opens with the same answers.
inline constexpr std::uint32_t kOptionRetired = 1u << 1;
/// Readers refuse a snapshot that sets any bit outside these.
inline constexpr std::uint32_t kOptionKnownBits = kOptionDistancePruning | kOptionRetired;

/// The section checksum: FNV-1a folded over 64-bit words (little-endian
/// loads, zero-padded tail) instead of bytes — one multiply per 8 bytes, so
/// verifying a whole snapshot at open() is a multi-GB/s scan, far below both
/// artifact-rebuild cost and the 10x open-vs-prepare acceptance bar.
/// Dependency-free and stable: it is part of the file format (bump
/// kFormatVersion if it ever changes).
[[nodiscard]] inline std::uint64_t checksum64(const void* data, std::size_t bytes,
                                              std::uint64_t h = 0xcbf29ce484222325ull) noexcept {
  constexpr std::uint64_t kPrime = 0x100000001b3ull;
  const auto* p = static_cast<const unsigned char*>(data);
  const std::size_t words = bytes / 8;
  for (std::size_t i = 0; i < words; ++i) {
    std::uint64_t w;
    std::memcpy(&w, p + i * 8, 8);
    h = (h ^ w) * kPrime;
  }
  if (bytes % 8 != 0) {
    std::uint64_t tail = 0;
    std::memcpy(&tail, p + words * 8, bytes % 8);
    h = (h ^ tail) * kPrime;
  }
  return h;
}

[[nodiscard]] constexpr std::uint64_t align_up(std::uint64_t x, std::uint64_t a) noexcept {
  return (x + a - 1) / a * a;
}

}  // namespace c3::snapshot
