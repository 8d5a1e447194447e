#include "objectives/objective.hpp"

#include "util/error.hpp"
#include "util/strings.hpp"

namespace aed {

Objective parseObjective(std::string_view text) {
  Objective objective;
  objective.label = std::string(trim(text));
  const auto tokens = splitWhitespace(text);
  require(tokens.size() >= 2,
          "objective needs a restriction and an XPath: " + objective.label);

  std::string keyword(tokens[0]);
  for (char& c : keyword) c = static_cast<char>(std::toupper(c));
  if (keyword == "ELIMINATE") {
    objective.restriction = Restriction::kEliminate;
  } else if (keyword == "EQUATE") {
    objective.restriction = Restriction::kEquate;
  } else if (keyword == "NOMODIFY") {
    objective.restriction = Restriction::kNoModify;
  } else {
    throw AedError("unknown restriction '" + std::string(tokens[0]) +
                   "' (expected ELIMINATE, EQUATE, or NOMODIFY)");
  }

  objective.xpath = XPath::parse(tokens[1]);

  std::size_t i = 2;
  while (i < tokens.size()) {
    std::string clause(tokens[i]);
    for (char& c : clause) c = static_cast<char>(std::toupper(c));
    if (clause == "GROUPBY") {
      require(i + 1 < tokens.size(), "GROUPBY needs an attribute name");
      objective.groupBy = std::string(tokens[i + 1]);
      i += 2;
    } else if (clause == "WEIGHT") {
      require(i + 1 < tokens.size(), "WEIGHT needs a number");
      const int value = parseInt(
          tokens[i + 1], "WEIGHT clause of objective '" + objective.label + "'");
      require(value > 0, "WEIGHT must be positive");
      objective.weight = static_cast<unsigned>(value);
      i += 2;
    } else {
      throw AedError("unexpected token in objective: " + clause);
    }
  }
  return objective;
}

std::vector<Objective> parseObjectives(std::string_view text) {
  std::vector<Objective> objectives;
  for (std::string_view line : splitChar(text, '\n')) {
    const auto hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;
    objectives.push_back(parseObjective(line));
  }
  return objectives;
}

namespace {
std::vector<Objective> single(const std::string& text, unsigned weight) {
  Objective objective = parseObjective(text);
  objective.weight = weight;
  return {objective};
}
}  // namespace

std::vector<Objective> objectivesPreserveTemplates(unsigned weight) {
  auto out = single("EQUATE //PacketFilter GROUPBY name", weight);
  auto more = single("EQUATE //RouteFilter GROUPBY name", weight);
  out.insert(out.end(), more.begin(), more.end());
  return out;
}

std::vector<Objective> objectivesMinDevices(unsigned weight) {
  return single("NOMODIFY //Router GROUPBY name", weight);
}

std::vector<Objective> objectivesAvoidRouters(
    const std::vector<std::string>& routers, unsigned weight) {
  std::vector<Objective> out;
  for (const std::string& router : routers) {
    auto one =
        single("NOMODIFY //Router[name=\"" + router + "\"]", weight);
    out.insert(out.end(), one.begin(), one.end());
  }
  return out;
}

std::vector<Objective> objectivesAvoidStaticRoutes(unsigned weight) {
  return single(
      "ELIMINATE //RoutingProcess[type=\"static\"]/Origination GROUPBY prefix",
      weight);
}

std::vector<Objective> objectivesMinPacketFilters(unsigned weight) {
  return single("ELIMINATE //PacketFilter GROUPBY name", weight);
}

std::vector<Objective> objectivesAvoidRedistribution(unsigned weight) {
  return single("ELIMINATE //Redistribution GROUPBY from", weight);
}

}  // namespace aed
