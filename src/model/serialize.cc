#include "model/serialize.h"

#include <fstream>
#include <sstream>

#include "util/string_util.h"

namespace webmon {

std::string ProblemToText(const ProblemInstance& problem) {
  std::ostringstream os;
  os << "webmon-problem 1\n";
  os << "resources " << problem.num_resources() << "\n";
  os << "chronons " << problem.num_chronons() << "\n";
  const BudgetVector& budget = problem.budget();
  if (budget.is_uniform()) {
    os << "budget uniform " << budget.uniform_value() << "\n";
  } else {
    os << "budget perchronon";
    for (Chronon t = 0; t < problem.num_chronons(); ++t) {
      os << " " << budget.At(t);
    }
    os << "\n";
  }
  for (const auto& profile : problem.profiles()) {
    os << "profile\n";
    for (const auto& cei : profile.ceis) {
      os << "cei " << cei.arrival << " " << cei.weight << " " << cei.required
         << "\n";
      for (const auto& ei : cei.eis) {
        os << "ei " << ei.resource << " " << ei.start << " " << ei.finish
           << "\n";
      }
    }
  }
  return os.str();
}

StatusOr<ProblemInstance> ProblemFromText(const std::string& text) {
  std::istringstream is(text);
  std::string line;

  auto next_line = [&](std::string* out) {
    while (std::getline(is, line)) {
      const std::string_view stripped = StripWhitespace(line);
      if (stripped.empty() || stripped[0] == '#') continue;
      *out = std::string(stripped);
      return true;
    }
    return false;
  };

  std::string current;
  if (!next_line(&current) || current != "webmon-problem 1") {
    return Status::InvalidArgument("missing or unsupported problem header");
  }

  auto expect_field = [&](const std::string& key,
                          int64_t* value) -> Status {
    std::string row;
    if (!next_line(&row)) {
      return Status::InvalidArgument("unexpected end of input, wanted " + key);
    }
    std::istringstream ls(row);
    std::string name;
    if (!(ls >> name >> *value) || name != key) {
      return Status::InvalidArgument("malformed '" + key + "' line: " + row);
    }
    return Status::OK();
  };

  int64_t num_resources = 0;
  int64_t num_chronons = 0;
  WEBMON_RETURN_IF_ERROR(expect_field("resources", &num_resources));
  WEBMON_RETURN_IF_ERROR(expect_field("chronons", &num_chronons));
  if (num_resources < 0 || num_chronons <= 0) {
    return Status::InvalidArgument("non-positive dimensions");
  }

  std::string budget_line;
  if (!next_line(&budget_line)) {
    return Status::InvalidArgument("missing budget line");
  }
  std::istringstream bs(budget_line);
  std::string keyword;
  std::string mode;
  if (!(bs >> keyword >> mode) || keyword != "budget") {
    return Status::InvalidArgument("malformed budget line: " + budget_line);
  }
  BudgetVector budget = BudgetVector::Uniform(0);
  if (mode == "uniform") {
    int64_t c = 0;
    if (!(bs >> c)) {
      return Status::InvalidArgument("malformed uniform budget");
    }
    if (c < 0) {
      return Status::InvalidArgument("budget must be >= 0, got " +
                                     std::to_string(c));
    }
    budget = BudgetVector::Uniform(c);
  } else if (mode == "perchronon") {
    std::vector<int64_t> values;
    int64_t c = 0;
    while (bs >> c) {
      if (c < 0) {
        return Status::InvalidArgument(
            "perchronon budget values must be >= 0, got " +
            std::to_string(c));
      }
      values.push_back(c);
    }
    if (static_cast<int64_t>(values.size()) != num_chronons) {
      return Status::InvalidArgument(
          "perchronon budget must list one value per chronon");
    }
    budget = BudgetVector::PerChronon(std::move(values));
  } else {
    return Status::InvalidArgument("unknown budget mode: " + mode);
  }

  ProblemBuilder builder(static_cast<uint32_t>(num_resources), num_chronons,
                         std::move(budget));
  bool in_profile = false;
  // Pending CEI attributes and EIs, flushed when the next cei/profile
  // starts or input ends.
  bool has_pending = false;
  Chronon pending_arrival = -1;
  double pending_weight = 1.0;
  uint32_t pending_required = 0;
  std::vector<std::tuple<ResourceId, Chronon, Chronon>> pending_eis;

  auto flush = [&]() -> Status {
    if (!has_pending) return Status::OK();
    if (pending_eis.empty()) {
      return Status::InvalidArgument("cei with no ei lines");
    }
    WEBMON_RETURN_IF_ERROR(builder
                               .AddCei(pending_eis, pending_arrival,
                                       pending_weight, pending_required)
                               .status());
    pending_eis.clear();
    has_pending = false;
    return Status::OK();
  };

  while (next_line(&current)) {
    std::istringstream ls(current);
    std::string tag;
    ls >> tag;
    if (tag == "profile") {
      WEBMON_RETURN_IF_ERROR(flush());
      builder.BeginProfile();
      in_profile = true;
    } else if (tag == "cei") {
      if (!in_profile) {
        return Status::InvalidArgument("cei outside a profile");
      }
      WEBMON_RETURN_IF_ERROR(flush());
      if (!(ls >> pending_arrival >> pending_weight >> pending_required)) {
        return Status::InvalidArgument("malformed cei line: " + current);
      }
      has_pending = true;
    } else if (tag == "ei") {
      if (!has_pending) {
        return Status::InvalidArgument("ei outside a cei");
      }
      int64_t resource = 0;
      Chronon start = 0;
      Chronon finish = 0;
      if (!(ls >> resource >> start >> finish) || resource < 0) {
        return Status::InvalidArgument("malformed ei line: " + current);
      }
      pending_eis.emplace_back(static_cast<ResourceId>(resource), start,
                               finish);
    } else {
      return Status::InvalidArgument("unknown line: " + current);
    }
  }
  WEBMON_RETURN_IF_ERROR(flush());
  return builder.Build();
}

Status SaveProblemToFile(const ProblemInstance& problem,
                         const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for write: " + path);
  out << ProblemToText(problem);
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

StatusOr<ProblemInstance> LoadProblemFromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open for read: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return ProblemFromText(buf.str());
}

}  // namespace webmon
