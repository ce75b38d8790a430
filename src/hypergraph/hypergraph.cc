#include "hypergraph/hypergraph.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <unordered_set>

#include "common/parse.h"

namespace hgm {


size_t Hypergraph::TotalEdgeSize() const {
  size_t total = 0;
  for (const auto& e : edges_) total += e.Count();
  return total;
}

size_t Hypergraph::MinEdgeSize() const {
  size_t best = Bitset::npos;
  for (const auto& e : edges_) best = std::min(best, e.Count());
  return best;
}

size_t Hypergraph::MaxEdgeSize() const {
  size_t best = 0;
  for (const auto& e : edges_) best = std::max(best, e.Count());
  return best;
}

bool Hypergraph::HasEmptyEdge() const {
  for (const auto& e : edges_) {
    if (e.None()) return true;
  }
  return false;
}

bool Hypergraph::IsSimple() const {
  for (size_t i = 0; i < edges_.size(); ++i) {
    if (edges_[i].None()) return false;
    for (size_t j = 0; j < edges_.size(); ++j) {
      // Any containment between distinct positions (including duplicates)
      // violates the antichain property.
      if (i != j && edges_[i].IsSubsetOf(edges_[j])) return false;
    }
  }
  return true;
}

void Hypergraph::Minimize(bool drop_empty) {
  AntichainMinimize(&edges_);
  if (drop_empty) {
    std::erase_if(edges_, [](const Bitset& e) { return e.None(); });
  }
}

bool Hypergraph::IsTransversal(const Bitset& x) const {
  for (const auto& e : edges_) {
    if (!x.Intersects(e)) return false;
  }
  return true;
}

bool Hypergraph::IsMinimalTransversal(const Bitset& x) const {
  if (!IsTransversal(x)) return false;
  // Every v in x needs a private edge E with x ∩ E = {v}.
  std::vector<bool> has_private(num_vertices_, false);
  for (const auto& e : edges_) {
    if (x.IntersectionCount(e) == 1) {
      Bitset hit = x & e;
      has_private[hit.FindFirst()] = true;
    }
  }
  bool minimal = true;
  x.ForEach([&](size_t v) {
    if (!has_private[v]) minimal = false;
  });
  return minimal;
}

size_t Hypergraph::FindMissedEdge(const Bitset& x) const {
  for (size_t i = 0; i < edges_.size(); ++i) {
    if (!x.Intersects(edges_[i])) return i;
  }
  return Bitset::npos;
}

Bitset Hypergraph::MinimizeTransversal(Bitset x) const {
  assert(IsTransversal(x));
  for (size_t v = x.FindFirst(); v != Bitset::npos; v = x.FindNext(v)) {
    Bitset candidate = x.WithoutBit(v);
    if (IsTransversal(candidate)) x = std::move(candidate);
  }
  return x;
}

Hypergraph Hypergraph::ComplementEdges() const {
  Hypergraph out(num_vertices_);
  for (const auto& e : edges_) out.AddEdge(~e);
  return out;
}

std::vector<size_t> Hypergraph::VertexDegrees() const {
  std::vector<size_t> deg(num_vertices_, 0);
  for (const auto& e : edges_) {
    e.ForEach([&](size_t v) { ++deg[v]; });
  }
  return deg;
}

bool Hypergraph::SameEdgeSet(const Hypergraph& other) const {
  if (num_vertices_ != other.num_vertices_) return false;
  std::unordered_set<Bitset, BitsetHash> mine(edges_.begin(), edges_.end());
  std::unordered_set<Bitset, BitsetHash> theirs(other.edges_.begin(),
                                                other.edges_.end());
  return mine == theirs;
}

std::vector<Bitset> Hypergraph::SortedEdges() const {
  std::vector<Bitset> out = edges_;
  std::sort(out.begin(), out.end(), CanonicalLess);
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::string Hypergraph::ToString() const {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& e : SortedEdges()) {
    if (!first) os << ", ";
    first = false;
    os << e.ToString();
  }
  os << "}";
  return os.str();
}

std::string Hypergraph::Format(const std::vector<std::string>& names) const {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& e : SortedEdges()) {
    if (!first) os << ", ";
    first = false;
    os << e.Format(names);
  }
  os << "}";
  return os.str();
}

Result<Hypergraph> Hypergraph::ParseEdgeListText(std::string_view text,
                                                 size_t num_vertices,
                                                 const std::string& origin) {
  std::vector<std::vector<size_t>> edges;
  size_t max_id = 0;
  bool any_vertex = false;
  std::vector<std::string_view> tokens;
  const uint64_t id_cap =
      num_vertices != 0 ? static_cast<uint64_t>(num_vertices) - 1
                        : kMaxParseId;

  Status s = ForEachDataLine(
      text, origin, [&](size_t line_no, std::string_view line) {
        SplitDataTokens(line, &tokens);
        if (tokens.empty()) {
          return Status::InvalidArgument(
              origin + ":" + std::to_string(line_no) +
              ": empty edge (an empty edge admits no transversal)");
        }
        std::vector<size_t> edge;
        edge.reserve(tokens.size());
        for (std::string_view token : tokens) {
          uint64_t id = 0;
          Status ts =
              ParseUnsignedToken(token, id_cap, origin, line_no, &id);
          if (!ts.ok()) return ts;
          edge.push_back(static_cast<size_t>(id));
          max_id = std::max(max_id, static_cast<size_t>(id));
          any_vertex = true;
        }
        edges.push_back(std::move(edge));
        return Status::OK();
      });
  if (!s.ok()) return s;

  size_t n = num_vertices != 0 ? num_vertices : (any_vertex ? max_id + 1 : 0);
  return Hypergraph::FromEdgeLists(n, edges);
}

Result<Hypergraph> Hypergraph::LoadEdgeListFile(const std::string& path,
                                                size_t num_vertices) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::IOError("read failure on " + path);
  return ParseEdgeListText(buffer.str(), num_vertices, path);
}

void AntichainMinimize(std::vector<Bitset>* sets) {
  auto& v = *sets;
  // Sort by cardinality so any superset appears after its subset, then a
  // quadratic-in-the-antichain filter keeps only minimal, unique sets.
  std::sort(v.begin(), v.end(), CanonicalLess);
  std::vector<Bitset> kept;
  kept.reserve(v.size());
  for (const auto& s : v) {
    bool dominated = false;
    for (const auto& k : kept) {
      if (k.IsSubsetOf(s)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) kept.push_back(s);
  }
  v = std::move(kept);
}

void AntichainMaximize(std::vector<Bitset>* sets) {
  auto& v = *sets;
  std::sort(v.begin(), v.end(), [](const Bitset& a, const Bitset& b) {
    size_t ca = a.Count(), cb = b.Count();
    if (ca != cb) return ca > cb;
    return a < b;
  });
  std::vector<Bitset> kept;
  kept.reserve(v.size());
  for (const auto& s : v) {
    bool dominated = false;
    for (const auto& k : kept) {
      if (s.IsSubsetOf(k)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) kept.push_back(s);
  }
  v = std::move(kept);
}

}  // namespace hgm
