// XPath subset used by the objective language (§7.1).
//
// AED selects syntax-subtree roots with a small XPath dialect:
//
//   //PacketFilter[name="internal"]
//   //Router[name="B"]
//   //RoutingProcess[type="static"]/Origination
//   /Router//RouteFilterRule
//
// Steps are separated by `/` (child) or `//` (descendant); each step names a
// node kind (or `*`) and may carry `[attr="value"]` predicates (several,
// comma-separated or in separate bracket groups).
//
// Matching operates on *path strings* — the `Kind[attr=value,...]/...`
// chains produced by Node::path() and DeltaVar::virtualPath() — so that
// objectives uniformly cover current nodes and potential (not yet added)
// nodes, which exist only as delta variables.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace aed {

/// One `Kind[attr=value,...]` component of a path string.
struct PathSegment {
  std::string kind;
  std::map<std::string, std::string> attrs;
};

/// Splits a path string into segments. Bracket-aware: '/' inside [...] (as
/// in prefix lengths, `Origination[prefix=1.0.0.0/16]`) does not split.
/// Throws AedError on malformed input.
std::vector<PathSegment> parsePathString(std::string_view path);

class XPath {
 public:
  /// Parses an expression; throws AedError with a diagnostic on error.
  static XPath parse(std::string_view text);

  /// All prefix lengths L (in segments) such that segments [0, L) match the
  /// whole expression — i.e. the matched subtree roots along this path.
  /// Sorted ascending, deduplicated.
  std::vector<std::size_t> matchPrefixes(
      const std::vector<PathSegment>& segments) const;

  /// Convenience: true if any prefix of `path` matches (the node at `path`
  /// is inside a selected subtree).
  bool selects(std::string_view path) const;

  /// The shortest matching prefix of `path`, as written there (a segment
  /// keeps its attribute order); nullopt if no prefix matches. This identifies the subtree root a node
  /// belongs to (used for GROUPBY and EQUATE alignment).
  std::optional<std::string> rootOf(std::string_view path) const;

  std::string str() const { return text_; }

  /// Attribute of the matched root's segment (for GROUPBY). Empty if absent.
  static std::string rootAttr(std::string_view rootPath,
                              const std::string& attr);

 private:
  struct Step {
    bool descendant = false;  // reached via '//' rather than '/'
    std::string kind;         // node kind name or "*"
    std::map<std::string, std::string> preds;
  };

  bool segmentMatches(const Step& step, const PathSegment& segment) const;

  std::vector<Step> steps_;
  std::string text_;
};

}  // namespace aed
