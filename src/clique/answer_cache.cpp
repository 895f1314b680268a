#include "clique/answer_cache.hpp"

#include <functional>
#include <string_view>
#include <utility>

#include "clique/engine.hpp"

namespace c3 {
namespace {

/// FNV-1a over raw bytes — the same fold the snapshot checksums use, small
/// enough to keep local (the clique layer must not include snapshot/).
std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

template <typename T>
std::uint64_t fnv1a_value(const T& value, std::uint64_t h) noexcept {
  return fnv1a(&value, sizeof value, h);
}

}  // namespace

std::uint64_t engine_fingerprint(std::string_view graph_id, const PreparedGraph& engine) {
  const CliqueOptions& o = engine.options();
  const Graph& g = engine.graph();
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV offset basis
  h = fnv1a(graph_id.data(), graph_id.size(), h);
  // Every field that determines the prepared artifacts — the same set the
  // snapshot loader fingerprints — plus the graph shape, so a re-registered
  // id with a different graph or preparation never aliases.
  h = fnv1a_value(static_cast<std::uint32_t>(o.algorithm), h);
  h = fnv1a_value(static_cast<std::uint32_t>(o.vertex_order), h);
  h = fnv1a_value(static_cast<std::uint32_t>(o.edge_order), h);
  h = fnv1a_value(o.eps, h);
  h = fnv1a_value(o.order_seed, h);
  h = fnv1a_value(static_cast<std::uint32_t>(o.distance_pruning ? 1 : 0), h);
  h = fnv1a_value(static_cast<std::uint64_t>(g.num_nodes()), h);
  h = fnv1a_value(static_cast<std::uint64_t>(g.num_edges()), h);
  return h;
}

AnswerCache::AnswerCache(std::size_t capacity, std::size_t shards) {
  if (shards == 0) shards = 1;
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) shards_.push_back(std::make_unique<Shard>());
  per_shard_capacity_ = capacity == 0 ? 0 : (capacity + shards - 1) / shards;
}

AnswerCache::Key AnswerCache::make_key(std::uint64_t fingerprint, const Query& q) {
  return Key{fingerprint, format_query(canonical_question(q))};
}

std::string AnswerCache::flatten(const Key& key) {
  // The fingerprint is folded in as a prefix; '\x1f' (unit separator) cannot
  // appear in format_query output, so flat keys never collide across parts.
  return std::to_string(key.fingerprint) + '\x1f' + key.text;
}

AnswerCache::Shard& AnswerCache::shard_for(const std::string& flat, std::uint64_t fingerprint) {
  const std::size_t h = std::hash<std::string_view>{}(flat) ^ static_cast<std::size_t>(fingerprint);
  return *shards_[h % shards_.size()];
}

std::optional<Answer> AnswerCache::find(const Key& key) {
  const std::string flat = flatten(key);
  Shard& shard = shard_for(flat, key.fingerprint);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.index.find(std::string_view(flat));
  if (it == shard.index.end()) return std::nullopt;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);  // refresh
  return it->second->second;
}

std::optional<Answer> AnswerCache::lookup(const Key& key) {
  std::optional<Answer> hit = find(key);
  if (hit.has_value()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
  }
  return hit;
}

std::optional<Answer> AnswerCache::lookup(const Key& key, const Query& query) {
  std::optional<Answer> hit = find(key);
  if (hit.has_value()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return hit;
  }
  if (query.kind == QueryKind::Count) {
    SpectrumNote note;
    {
      const std::lock_guard<std::mutex> lock(spectrum_mutex_);
      const auto it = spectrum_index_.find(key.fingerprint);
      if (it != spectrum_index_.end()) note = it->second;
    }
    const int k = query.k;
    const bool in_range = k >= 0 && static_cast<node_t>(k) <= note.omega;
    if (!note.text.empty() && (in_range || note.complete)) {
      std::optional<Answer> spectrum = find(Key{key.fingerprint, note.text});
      if (spectrum.has_value()) {
        Answer answer;
        answer.kind = QueryKind::Count;
        answer.k = k;
        answer.count = in_range && static_cast<std::size_t>(k) < spectrum->spectrum.counts.size()
                           ? spectrum->spectrum.counts[static_cast<std::size_t>(k)]
                           : 0;
        answer.stats.cliques = answer.count;
        hits_.fetch_add(1, std::memory_order_relaxed);
        cross_k_hits_.fetch_add(1, std::memory_order_relaxed);
        return answer;
      }
      // The spectrum entry was evicted out from under its note; drop the
      // note (unless a newer spectrum already replaced it) and miss.
      const std::lock_guard<std::mutex> lock(spectrum_mutex_);
      const auto it = spectrum_index_.find(key.fingerprint);
      if (it != spectrum_index_.end() && it->second.text == note.text) {
        spectrum_index_.erase(it);
      }
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return std::nullopt;
}

void AnswerCache::note_spectrum(const Key& key, const Answer& answer) {
  // Only the two bare canonical spellings are indexable — any extra option
  // text means the entry answers a differently-shaped question.
  int kmax = 0;
  if (key.text != "spectrum") {
    constexpr std::string_view prefix = "spectrum ";
    if (key.text.size() <= prefix.size() || key.text.compare(0, prefix.size(), prefix) != 0) {
      return;
    }
    kmax = 0;
    for (std::size_t i = prefix.size(); i < key.text.size(); ++i) {
      const char c = key.text[i];
      if (c < '0' || c > '9') return;
      kmax = kmax * 10 + (c - '0');
    }
  }
  SpectrumNote note;
  note.text = key.text;
  note.omega = answer.omega;
  // kmax == omega leaves larger cliques unprobed; only a spectrum that ran
  // past its clamp (or had none) proves every k it does not list counts 0.
  note.complete = kmax == 0 || answer.omega < static_cast<node_t>(kmax);
  const std::lock_guard<std::mutex> lock(spectrum_mutex_);
  SpectrumNote& slot = spectrum_index_[key.fingerprint];
  const bool better = slot.text.empty() || (note.complete && !slot.complete) ||
                      (note.complete == slot.complete && note.omega >= slot.omega);
  if (better) slot = std::move(note);
}

bool AnswerCache::insert(const Key& key, const Answer& answer) {
  // A truncated answer is a valid partial result for the query that ran it,
  // never the answer to the canonical question — replaying it would serve
  // incomplete data to unbudgeted queries.
  if (answer.truncated) return false;
  if (per_shard_capacity_ == 0) return false;

  std::string flat = flatten(key);
  Shard& shard = shard_for(flat, key.fingerprint);
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    if (const auto it = shard.index.find(std::string_view(flat)); it != shard.index.end()) {
      it->second->second = answer;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      insertions_.fetch_add(1, std::memory_order_relaxed);
    } else {
      shard.lru.emplace_front(std::move(flat), answer);
      shard.index.emplace(std::string_view(shard.lru.front().first), shard.lru.begin());
      while (shard.lru.size() > per_shard_capacity_) {
        shard.index.erase(std::string_view(shard.lru.back().first));
        shard.lru.pop_back();
        evictions_.fetch_add(1, std::memory_order_relaxed);
      }
      insertions_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (answer.kind == QueryKind::Spectrum) note_spectrum(key, answer);
  return true;
}

AnswerCacheStats AnswerCache::stats() const {
  AnswerCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.insertions = insertions_.load(std::memory_order_relaxed);
  s.cross_k_hits = cross_k_hits_.load(std::memory_order_relaxed);
  s.entries = size();
  return s;
}

std::size_t AnswerCache::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->lru.size();
  }
  return total;
}

void AnswerCache::clear() {
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    shard->index.clear();
    shard->lru.clear();
  }
  const std::lock_guard<std::mutex> lock(spectrum_mutex_);
  spectrum_index_.clear();
}

}  // namespace c3
