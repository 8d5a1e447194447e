#include "objectives/xpath.hpp"

#include <algorithm>
#include <utility>

#include "conftree/node.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace aed {

namespace {

// Splits "Kind[attr=value,...]" into a PathSegment.
PathSegment parseSegment(std::string_view text) {
  PathSegment segment;
  const auto bracket = text.find('[');
  if (bracket == std::string_view::npos) {
    segment.kind = std::string(text);
    return segment;
  }
  segment.kind = std::string(text.substr(0, bracket));
  require(text.back() == ']', "malformed path segment: " + std::string(text));
  std::string_view inner = text.substr(bracket + 1,
                                       text.size() - bracket - 2);
  for (std::string_view pair : splitChar(inner, ',')) {
    const auto eq = pair.find('=');
    require(eq != std::string_view::npos,
            "malformed attribute in segment: " + std::string(text));
    segment.attrs[std::string(pair.substr(0, eq))] =
        std::string(pair.substr(eq + 1));
  }
  return segment;
}

/// [begin, end) of each non-empty segment of `path`, split at the '/'
/// outside brackets.
std::vector<std::pair<std::size_t, std::size_t>> segmentSpans(
    std::string_view path) {
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  std::size_t start = 0;
  int depth = 0;
  for (std::size_t i = 0; i <= path.size(); ++i) {
    if (i < path.size() && path[i] == '[') ++depth;
    if (i < path.size() && path[i] == ']') --depth;
    if (i == path.size() || (path[i] == '/' && depth == 0)) {
      if (i > start) spans.emplace_back(start, i);
      start = i + 1;
    }
  }
  return spans;
}

}  // namespace

std::vector<PathSegment> parsePathString(std::string_view path) {
  std::vector<PathSegment> segments;
  for (const auto& [begin, end] : segmentSpans(path)) {
    segments.push_back(parseSegment(path.substr(begin, end - begin)));
  }
  return segments;
}

XPath XPath::parse(std::string_view text) {
  XPath xpath;
  xpath.text_ = std::string(trim(text));
  std::string_view rest = xpath.text_;
  require(!rest.empty(), "empty XPath expression");
  require(rest.front() == '/', "XPath must start with / or //");

  while (!rest.empty()) {
    Step step;
    require(rest.front() == '/', "expected / in XPath: " + xpath.text_);
    rest.remove_prefix(1);
    if (!rest.empty() && rest.front() == '/') {
      step.descendant = true;
      rest.remove_prefix(1);
    }
    // Step name up to '/' (outside brackets) or end.
    std::size_t end = 0;
    int depth = 0;
    while (end < rest.size() && (rest[end] != '/' || depth > 0)) {
      if (rest[end] == '[') ++depth;
      if (rest[end] == ']') --depth;
      ++end;
    }
    std::string_view stepText = rest.substr(0, end);
    rest.remove_prefix(end);
    require(!stepText.empty(), "empty XPath step in: " + xpath.text_);

    // Name, then zero or more [pred] groups.
    const auto bracket = stepText.find('[');
    step.kind = std::string(
        bracket == std::string_view::npos ? stepText
                                          : stepText.substr(0, bracket));
    require(!step.kind.empty(), "missing node kind in: " + xpath.text_);
    // Catch typos early: the kind must name a syntax-tree node type.
    if (step.kind != "*") {
      nodeKindFromName(step.kind);  // throws AedError on unknown kinds
    }
    std::string_view preds =
        bracket == std::string_view::npos ? std::string_view{}
                                          : stepText.substr(bracket);
    while (!preds.empty()) {
      require(preds.front() == '[', "malformed predicate in: " + xpath.text_);
      const auto close = preds.find(']');
      require(close != std::string_view::npos,
              "unterminated predicate in: " + xpath.text_);
      std::string_view inner = preds.substr(1, close - 1);
      preds.remove_prefix(close + 1);
      for (std::string_view pair : splitChar(inner, ',')) {
        const auto eq = pair.find('=');
        require(eq != std::string_view::npos,
                "predicate must be attr=\"value\": " + xpath.text_);
        std::string_view key = trim(pair.substr(0, eq));
        std::string_view value = trim(pair.substr(eq + 1));
        // Strip optional quotes.
        if (value.size() >= 2 && value.front() == '"' && value.back() == '"') {
          value = value.substr(1, value.size() - 2);
        }
        step.preds[std::string(key)] = std::string(value);
      }
    }
    xpath.steps_.push_back(std::move(step));
  }
  require(!xpath.steps_.empty(), "XPath has no steps: " + xpath.text_);
  return xpath;
}

bool XPath::segmentMatches(const Step& step,
                           const PathSegment& segment) const {
  if (step.kind != "*" && step.kind != segment.kind) return false;
  for (const auto& [key, value] : step.preds) {
    const auto it = segment.attrs.find(key);
    if (it == segment.attrs.end() || it->second != value) return false;
  }
  return true;
}

std::vector<std::size_t> XPath::matchPrefixes(
    const std::vector<PathSegment>& segments) const {
  // match[i][j] = steps [0,i) consumed using segments [0,j), with the last
  // consumed step matching segment j-1. Small sizes; plain recursion with
  // memoization is unnecessary.
  std::vector<std::size_t> results;
  // Positions reachable after consuming k steps: set of segment indices
  // where the k-th step matched (index of the matched segment).
  // Start: "before any step" at virtual position -1.
  std::vector<long> frontier{-1};
  for (const Step& step : steps_) {
    std::vector<long> next;
    for (long pos : frontier) {
      if (step.descendant) {
        for (long j = pos + 1; j < static_cast<long>(segments.size()); ++j) {
          if (segmentMatches(step, segments[static_cast<std::size_t>(j)])) {
            next.push_back(j);
          }
        }
      } else {
        const long j = pos + 1;
        if (j < static_cast<long>(segments.size()) &&
            segmentMatches(step, segments[static_cast<std::size_t>(j)])) {
          next.push_back(j);
        }
      }
    }
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
    frontier = std::move(next);
    if (frontier.empty()) return results;
  }
  for (long pos : frontier) {
    results.push_back(static_cast<std::size_t>(pos) + 1);
  }
  std::sort(results.begin(), results.end());
  return results;
}

bool XPath::selects(std::string_view path) const {
  return !matchPrefixes(parsePathString(path)).empty();
}

std::optional<std::string> XPath::rootOf(std::string_view path) const {
  const auto prefixes = matchPrefixes(parsePathString(path));
  if (prefixes.empty()) return std::nullopt;
  // Cut `path` as written: re-rendering the segments would reorder their
  // attributes, and DeltaVar::relativeKey() strips the root as a prefix.
  const auto spans = segmentSpans(path);
  const std::size_t begin = spans.front().first;
  const std::size_t end = spans[prefixes.front() - 1].second;
  return std::string(path.substr(begin, end - begin));
}

std::string XPath::rootAttr(std::string_view rootPath,
                            const std::string& attr) {
  const auto segments = parsePathString(rootPath);
  if (segments.empty()) return "";
  const auto it = segments.back().attrs.find(attr);
  return it == segments.back().attrs.end() ? "" : it->second;
}

}  // namespace aed
