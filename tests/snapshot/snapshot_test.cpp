// Snapshot subsystem tests: byte-identical query results between a cold
// engine and a snapshot-loaded one for every algorithm, the never-rebuild
// guarantee, refusal of corrupt/truncated/mismatched files with precise
// errors, and concurrent queries over a loaded engine (the tsan surface).
#include "snapshot/snapshot.hpp"

#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "clique/api.hpp"
#include "clique/engine.hpp"
#include "graph/builder.hpp"
#include "graph/gen/generators.hpp"
#include "graph/io.hpp"
#include "snapshot/format.hpp"
#include "snapshot/mapped_file.hpp"

namespace c3 {
namespace {

const Algorithm kAllAlgorithms[] = {Algorithm::C3List,   Algorithm::C3ListCD,
                                    Algorithm::Hybrid,   Algorithm::KCList,
                                    Algorithm::ArbCount, Algorithm::BruteForce};

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-process directory: ctest runs each TEST_F as its own process, in
    // parallel — a shared path would let one test's TearDown delete files
    // another test is still writing.
    dir_ = std::filesystem::temp_directory_path() /
           ("c3list_snapshot_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Flips one byte of the file at `offset`.
  void corrupt_byte(const std::filesystem::path& path, std::uint64_t offset) {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekg(static_cast<std::streamoff>(offset));
    char b = 0;
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x5a);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&b, 1);
  }

  /// The error message open() throws for `path`, or "" if it doesn't throw.
  std::string open_error(const std::filesystem::path& path) {
    try {
      (void)snapshot::Snapshot::open(path);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "";
  }

  std::filesystem::path dir_;
};

TEST_F(SnapshotTest, RoundTripIdenticalResultsAllAlgorithms) {
  const Graph g = social_like(200, 1600, 0.4, 21);
  for (const Algorithm alg : kAllAlgorithms) {
    SCOPED_TRACE(algorithm_name(alg));
    CliqueOptions opts;
    opts.algorithm = alg;
    const PreparedGraph cold(g, opts);
    const auto path = dir_ / "roundtrip.c3snap";
    snapshot::write(path, cold);
    const auto snap = snapshot::Snapshot::open(path);
    const PreparedGraph& loaded = snap.engine();

    EXPECT_EQ(loaded.prepare_seconds(), 0.0);
    const int installed = loaded.artifacts_built();

    for (int k = 3; k <= 6; ++k) {
      const CliqueResult a = cold.count(k);
      const CliqueResult b = loaded.count(k);
      EXPECT_EQ(a.count, b.count) << "k=" << k;
      EXPECT_EQ(b.stats.preprocess_seconds, 0.0) << "k=" << k;
    }
    const CliqueSpectrum sa = cold.spectrum();
    const CliqueSpectrum sb = loaded.spectrum();
    EXPECT_EQ(sa.omega, sb.omega);
    ASSERT_EQ(sa.counts.size(), sb.counts.size());
    for (std::size_t i = 0; i < sa.counts.size(); ++i) EXPECT_EQ(sa.counts[i], sb.counts[i]);
    EXPECT_EQ(sb.preprocess_seconds, 0.0);

    EXPECT_EQ(cold.per_vertex_counts(4), loaded.per_vertex_counts(4));
    EXPECT_EQ(cold.per_edge_counts(4), loaded.per_edge_counts(4));
    EXPECT_EQ(cold.max_clique_size(), loaded.max_clique_size());
    EXPECT_EQ(cold.find_clique(3).has_value(), loaded.find_clique(3).has_value());

    // Nothing above was allowed to build anything.
    EXPECT_EQ(loaded.artifacts_built(), installed);
    EXPECT_EQ(loaded.prepare_seconds(), 0.0);
  }
}

TEST_F(SnapshotTest, WriteForcesTheFullQuerySurface) {
  // Even for BruteForce (whose prepare() builds nothing), the snapshot must
  // carry the upper-bound artifact so max-clique queries never prepare.
  const Graph g = erdos_renyi(60, 450, 5);
  CliqueOptions opts;
  opts.algorithm = Algorithm::BruteForce;
  const PreparedGraph cold(g, opts);
  const auto path = dir_ / "brute.c3snap";
  snapshot::write(path, cold);
  const auto info = snapshot::inspect(path);
  EXPECT_TRUE(info.has(snapshot::kArtifactExactDegeneracy));

  const auto snap = snapshot::Snapshot::open(path);
  EXPECT_EQ(snap.engine().max_clique_size(), cold.max_clique_size());
  EXPECT_EQ(snap.engine().prepare_seconds(), 0.0);
}

TEST_F(SnapshotTest, InspectDescribesTheFile) {
  const Graph g = social_like(150, 1100, 0.45, 77);
  CliqueOptions opts;
  opts.algorithm = Algorithm::C3List;
  const PreparedGraph engine(g, opts);
  const auto path = dir_ / "inspect.c3snap";
  snapshot::write(path, engine);

  const snapshot::SnapshotInfo info = snapshot::inspect(path);
  EXPECT_EQ(info.format_version, snapshot::kFormatVersion);
  EXPECT_EQ(info.num_nodes, g.num_nodes());
  EXPECT_EQ(info.num_edges, g.num_edges());
  EXPECT_EQ(info.options.algorithm, Algorithm::C3List);
  EXPECT_TRUE(info.has(snapshot::kArtifactDag));
  EXPECT_TRUE(info.has(snapshot::kArtifactCommunities));
  EXPECT_FALSE(info.has(snapshot::kArtifactEdgeOrder));
  // Graph CSR (4 sections) + DAG (6) + communities (2).
  EXPECT_EQ(info.sections.size(), 12u);
  EXPECT_EQ(info.file_bytes, std::filesystem::file_size(path));
}

TEST_F(SnapshotTest, EmptyAndTinyGraphsRoundTrip) {
  const Graph empty = build_graph(EdgeList{}, 0);
  const Graph tiny = build_graph(EdgeList{{0, 1}, {1, 2}, {0, 2}}, 3);
  for (const Graph* g : {&empty, &tiny}) {
    for (const Algorithm alg : kAllAlgorithms) {
      SCOPED_TRACE(algorithm_name(alg));
      CliqueOptions opts;
      opts.algorithm = alg;
      const PreparedGraph cold(*g, opts);
      const auto path = dir_ / "tiny.c3snap";
      snapshot::write(path, cold);
      const auto snap = snapshot::Snapshot::open(path);
      EXPECT_EQ(snap.graph().num_nodes(), g->num_nodes());
      EXPECT_EQ(snap.engine().count(3).count, cold.count(3).count);
      EXPECT_EQ(snap.engine().max_clique_size(), cold.max_clique_size());
    }
  }
}

TEST_F(SnapshotTest, RejectsGarbageAndTruncatedHeader) {
  const auto garbage = dir_ / "garbage.c3snap";
  std::ofstream(garbage, std::ios::binary) << std::string(4096, 'x');
  EXPECT_NE(open_error(garbage).find("bad magic"), std::string::npos);

  const auto shorty = dir_ / "short.c3snap";
  std::ofstream(shorty, std::ios::binary) << "c3snap";
  EXPECT_NE(open_error(shorty).find("truncated header"), std::string::npos);
}

TEST_F(SnapshotTest, RejectsForeignVersionAndTruncationAndTamper) {
  const Graph g = erdos_renyi(80, 600, 3);
  const PreparedGraph engine(g, {});
  const auto path = dir_ / "valid.c3snap";
  snapshot::write(path, engine);
  ASSERT_EQ(open_error(path), "");  // sanity: the pristine file loads

  // Version: bytes [8, 12) of the header (checked before the checksum, so
  // the message names the version).
  auto tampered = dir_ / "version.c3snap";
  std::filesystem::copy_file(path, tampered);
  corrupt_byte(tampered, 8);
  EXPECT_NE(open_error(tampered).find("format version mismatch"), std::string::npos);

  // Truncation: the header's file_bytes no longer matches.
  tampered = dir_ / "truncated.c3snap";
  std::filesystem::copy_file(path, tampered);
  std::filesystem::resize_file(tampered, std::filesystem::file_size(tampered) - 17);
  EXPECT_NE(open_error(tampered).find("truncated"), std::string::npos);

  // Tampering with the section table breaks the header checksum.
  tampered = dir_ / "table.c3snap";
  std::filesystem::copy_file(path, tampered);
  corrupt_byte(tampered, sizeof(snapshot::SnapshotHeader) + 8);  // first record's offset field
  EXPECT_NE(open_error(tampered).find("header checksum mismatch"), std::string::npos);
}

TEST_F(SnapshotTest, RejectsCorruptSectionPayloadNamingTheSection) {
  const Graph g = erdos_renyi(80, 600, 3);
  const PreparedGraph engine(g, {});
  const auto path = dir_ / "payload.c3snap";
  snapshot::write(path, engine);

  const snapshot::SnapshotInfo info = snapshot::inspect(path);
  const snapshot::SectionInfo& target = info.sections.back();
  corrupt_byte(path, target.offset + target.bytes / 2);
  const std::string error = open_error(path);
  EXPECT_NE(error.find("checksum mismatch"), std::string::npos) << error;
  EXPECT_NE(error.find(target.name), std::string::npos) << error;

  // The same file loads with verification off (the trusted-store fast path) —
  // the corruption is in a payload, not the header.
  snapshot::SnapshotOpenOptions trusting;
  trusting.verify_checksums = false;
  EXPECT_NO_THROW((void)snapshot::Snapshot::open(path, trusting));
}

TEST_F(SnapshotTest, RefusesFingerprintMismatchAndAppliesRuntimeFlags) {
  const Graph g = erdos_renyi(70, 520, 13);
  CliqueOptions opts;
  opts.algorithm = Algorithm::C3List;
  const PreparedGraph engine(g, opts);
  const auto path = dir_ / "fingerprint.c3snap";
  snapshot::write(path, engine);

  CliqueOptions wrong = opts;
  wrong.algorithm = Algorithm::KCList;
  EXPECT_THROW((void)snapshot::Snapshot::open(path, wrong), std::runtime_error);
  wrong = opts;
  wrong.order_seed = 999;
  EXPECT_THROW((void)snapshot::Snapshot::open(path, wrong), std::runtime_error);
  wrong = opts;
  wrong.eps = 0.25;
  EXPECT_THROW((void)snapshot::Snapshot::open(path, wrong), std::runtime_error);

  // Runtime-only knobs are not part of the fingerprint; they apply on top.
  CliqueOptions runtime = opts;
  runtime.distance_pruning = false;
  const auto snap = snapshot::Snapshot::open(path, runtime);
  EXPECT_FALSE(snap.engine().options().distance_pruning);
  EXPECT_EQ(snap.engine().count(4).count, engine.count(4).count);
}

TEST_F(SnapshotTest, RetiredOptionBitIsIgnoredAndHigherBitsAreRefused) {
  const Graph g = erdos_renyi(70, 520, 17);
  const PreparedGraph engine(g, {});
  const auto path = dir_ / "flags.c3snap";
  snapshot::write(path, engine);
  const count_t expected = snapshot::Snapshot::open(path).engine().count(5).count;

  // Copies the snapshot with `bits` set in option_flags and a header
  // checksum that matches, so only the flags can refuse it.
  const auto with_flags = [&](const std::string& name, std::uint32_t bits) {
    std::ifstream in(path, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    snapshot::SnapshotHeader h;
    std::memcpy(&h, bytes.data(), sizeof h);
    h.option_flags |= bits;
    h.header_checksum = 0;
    std::uint64_t hc = snapshot::checksum64(&h, sizeof h);
    hc = snapshot::checksum64(bytes.data() + sizeof h,
                              h.section_count * sizeof(snapshot::SectionRecord), hc);
    h.header_checksum = hc;
    std::memcpy(bytes.data(), &h, sizeof h);
    const auto out = dir_ / name;
    std::ofstream(out, std::ios::binary)
        .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return out;
  };

  // Bit 1 once recorded a search-only option; a file that sets it opens.
  const auto retired = with_flags("retired.c3snap", 1u << 1);
  ASSERT_EQ(open_error(retired), "");
  EXPECT_EQ(snapshot::Snapshot::open(retired).engine().count(5).count, expected);

  const std::string error = open_error(with_flags("unknown.c3snap", 1u << 2));
  EXPECT_NE(error.find("option_flags"), std::string::npos) << error;
}

TEST_F(SnapshotTest, RefusalNamesTheOrderKinds) {
  // A c3List-CD snapshot prepared with the exact edge order, opened by a
  // caller expecting the default (Algorithm 4), is refused with both orders
  // named; the same holds for the vertex order.
  const Graph g = social_like(120, 800, 0.4, 5);
  CliqueOptions exact;
  exact.algorithm = Algorithm::C3ListCD;
  exact.edge_order = EdgeOrderKind::ExactCommunityDegeneracy;
  const PreparedGraph engine(g, exact);
  const auto path = dir_ / "edge_order.c3snap";
  snapshot::write(path, engine);

  const auto refusal = [&](const CliqueOptions& expected) {
    try {
      (void)snapshot::Snapshot::open(path, expected);
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  CliqueOptions defaults;
  defaults.algorithm = Algorithm::C3ListCD;
  EXPECT_NE(refusal(defaults).find("fingerprint mismatch: snapshot edge order "
                                   "exact-community-degeneracy, expected "
                                   "approx-community-degeneracy"),
            std::string::npos)
      << refusal(defaults);
  CliqueOptions by_degree = exact;
  by_degree.vertex_order = VertexOrderKind::Degree;
  EXPECT_NE(refusal(by_degree).find(
                "fingerprint mismatch: snapshot vertex order default, expected degree"),
            std::string::npos)
      << refusal(by_degree);
  EXPECT_EQ(snapshot::inspect(path).options.edge_order, EdgeOrderKind::ExactCommunityDegeneracy);
  const auto snap = snapshot::Snapshot::open(path, exact);
  EXPECT_EQ(snap.engine().count(5).count, engine.count(5).count);
}

TEST_F(SnapshotTest, ReadGraphAnyDetachesTheGraph) {
  const Graph g = erdos_renyi(90, 500, 33);
  const PreparedGraph engine(g, {});
  const auto path = dir_ / "any.c3snap";
  snapshot::write(path, engine);

  // The snapshot (and its mapping) dies inside read_graph_any; the returned
  // graph must own its memory.
  const Graph h = read_graph_any(path);
  ASSERT_EQ(h.num_nodes(), g.num_nodes());
  ASSERT_EQ(h.num_edges(), g.num_edges());
  for (node_t v = 0; v < g.num_nodes(); ++v) {
    const auto a = g.neighbors(v);
    const auto b = h.neighbors(v);
    ASSERT_EQ(std::vector<node_t>(a.begin(), a.end()), std::vector<node_t>(b.begin(), b.end()));
  }
}

TEST_F(SnapshotTest, ConcurrentQueriesOnLoadedEngine) {
  const Graph g = social_like(300, 2400, 0.4, 7);
  CliqueOptions opts;
  opts.algorithm = Algorithm::C3List;
  const PreparedGraph cold(g, opts);
  const auto path = dir_ / "concurrent.c3snap";
  snapshot::write(path, cold);
  const auto snap = snapshot::Snapshot::open(path);
  const PreparedGraph& loaded = snap.engine();

  count_t expected[4];
  for (int k = 3; k <= 6; ++k) expected[k - 3] = cold.count(k).count;
  const node_t omega = cold.max_clique_size();
  const int installed = loaded.artifacts_built();

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<std::string> failures(kThreads);
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 3; ++rep) {
        const int k = 3 + (t + rep) % 4;
        const CliqueResult r = loaded.count(k);
        if (r.count != expected[k - 3]) failures[t] = "count mismatch";
        if (r.stats.preprocess_seconds != 0.0) failures[t] = "nonzero preprocess";
        if (t % 2 == 0 && loaded.max_clique_size() != omega) failures[t] = "omega mismatch";
        if (!loaded.has_clique(3)) failures[t] = "missing 3-clique";
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& f : failures) EXPECT_EQ(f, "");
  EXPECT_EQ(loaded.artifacts_built(), installed);
  EXPECT_EQ(loaded.prepare_seconds(), 0.0);
}

TEST_F(SnapshotTest, HeapFallbackReadsIdenticalBytesAndReportsNoMapping) {
  // MappedFile::read_heap is the path platforms without mmap always take;
  // force it directly and check the contract: same bytes, is_mapped() false,
  // and the page-granular warm-up hints are explicit no-ops (prefault does
  // nothing, lock_memory reports false instead of mlock-ing a heap pointer).
  const auto path = dir_ / "heap.bin";
  std::string payload(70'000, '\0');
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>((i * 131) ^ (i >> 7));
  }
  std::ofstream(path, std::ios::binary) << payload;

  const snapshot::MappedFile mapped = snapshot::MappedFile::map_readonly(path);
  const snapshot::MappedFile heap = snapshot::MappedFile::read_heap(path);
  EXPECT_FALSE(heap.is_mapped());
  ASSERT_EQ(heap.size(), payload.size());
  ASSERT_EQ(heap.size(), mapped.size());
  EXPECT_EQ(std::memcmp(heap.data(), payload.data(), payload.size()), 0);
  EXPECT_EQ(std::memcmp(heap.data(), mapped.data(), mapped.size()), 0);

  heap.prefault();  // must be a harmless no-op
  EXPECT_FALSE(heap.lock_memory());

  // Empty files are fine too (data may be null, size 0, hints still safe).
  const auto empty = dir_ / "empty.bin";
  std::ofstream(empty, std::ios::binary).flush();
  const snapshot::MappedFile none = snapshot::MappedFile::read_heap(empty);
  EXPECT_EQ(none.size(), 0u);
  EXPECT_FALSE(none.is_mapped());
  none.prefault();
  EXPECT_FALSE(none.lock_memory());
}

TEST_F(SnapshotTest, ForcedHeapFallbackServesIdenticalAnswers) {
  // A snapshot opened through the heap fallback must behave exactly like the
  // mmap path — except memory_locked(), which must report false even when
  // lock_memory was requested (the old code fell through to mlock on a heap
  // pointer, whose success/failure was meaningless).
  const Graph g = social_like(150, 1200, 0.4, 17);
  const PreparedGraph cold(g, {});
  const auto path = dir_ / "heap.c3snap";
  snapshot::write(path, cold);

  snapshot::SnapshotOpenOptions open;
  open.force_heap_fallback = true;
  open.prefault = true;      // no-op on the heap path, must not throw
  open.lock_memory = true;   // must be reported as not locked
  const auto snap = snapshot::Snapshot::open(path, open);
  EXPECT_FALSE(snap.memory_locked());
  EXPECT_EQ(snap.engine().count(4).count, cold.count(4).count);
  EXPECT_EQ(snap.engine().max_clique_size(), cold.max_clique_size());
  EXPECT_EQ(snap.engine().prepare_seconds(), 0.0);

  // Checksums still verify (and still catch corruption) on the heap path.
  auto tampered = dir_ / "heap_tampered.c3snap";
  std::filesystem::copy_file(path, tampered);
  const snapshot::SnapshotInfo info = snapshot::inspect(tampered);
  const snapshot::SectionInfo& target = info.sections.back();
  corrupt_byte(tampered, target.offset + target.bytes / 2);
  snapshot::SnapshotOpenOptions strict;
  strict.force_heap_fallback = true;
  EXPECT_THROW((void)snapshot::Snapshot::open(tampered, strict), std::runtime_error);
}

TEST_F(SnapshotTest, WarmupHintsAreBestEffortAndChangeNoAnswer) {
  const Graph g = social_like(150, 1200, 0.4, 17);
  const PreparedGraph cold(g, {});
  const auto path = dir_ / "warmup.c3snap";
  snapshot::write(path, cold);

  snapshot::SnapshotOpenOptions open;
  open.prefault = true;
  open.lock_memory = true;
  const auto snap = snapshot::Snapshot::open(path, open);
  // mlock is best-effort (RLIMIT_MEMLOCK may refuse); the accessor reports
  // the outcome, and either way the engine serves identical answers.
  (void)snap.memory_locked();
  EXPECT_EQ(snap.engine().count(4).count, cold.count(4).count);
  EXPECT_EQ(snap.engine().prepare_seconds(), 0.0);

  // Hints off: memory_locked() must report false.
  const auto plain = snapshot::Snapshot::open(path);
  EXPECT_FALSE(plain.memory_locked());
  EXPECT_EQ(plain.engine().count(4).count, cold.count(4).count);
}

}  // namespace
}  // namespace c3
