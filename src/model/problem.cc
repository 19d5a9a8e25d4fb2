#include "model/problem.h"

#include <algorithm>
#include <sstream>
#include <tuple>
#include <unordered_set>

namespace webmon {

ProblemInstance::ProblemInstance(uint32_t num_resources, Chronon num_chronons,
                                 BudgetVector budget)
    : num_resources_(num_resources),
      num_chronons_(num_chronons),
      budget_(std::move(budget)) {}

int64_t ProblemInstance::TotalCeis() const {
  int64_t total = 0;
  for (const auto& p : profiles_) total += static_cast<int64_t>(p.ceis.size());
  return total;
}

int64_t ProblemInstance::TotalEis() const {
  int64_t total = 0;
  for (const auto& p : profiles_) {
    for (const auto& cei : p.ceis) total += static_cast<int64_t>(cei.eis.size());
  }
  return total;
}

std::vector<const Cei*> ProblemInstance::AllCeis() const {
  std::vector<const Cei*> out;
  out.reserve(static_cast<size_t>(TotalCeis()));
  for (const auto& p : profiles_) {
    for (const auto& cei : p.ceis) out.push_back(&cei);
  }
  return out;
}

bool ProblemInstance::HasIntraResourceOverlap() const {
  for (const auto& p : profiles_) {
    for (const auto& cei : p.ceis) {
      if (cei.HasIntraResourceOverlap()) return true;
    }
  }
  return false;
}

bool ProblemInstance::IsUnitWidth() const {
  for (const auto& p : profiles_) {
    for (const auto& cei : p.ceis) {
      if (!cei.IsUnitWidth()) return false;
    }
  }
  return true;
}

Status ProblemInstance::Validate() const {
  if (num_chronons_ <= 0) {
    return Status::InvalidArgument("epoch must contain at least one chronon");
  }
  std::unordered_set<CeiId> cei_ids;
  std::unordered_set<EiId> ei_ids;
  for (size_t pi = 0; pi < profiles_.size(); ++pi) {
    const Profile& p = profiles_[pi];
    if (p.id != static_cast<ProfileId>(pi)) {
      return Status::Internal("profile id does not match its position");
    }
    for (const Cei& cei : p.ceis) {
      if (cei.eis.empty()) {
        return Status::InvalidArgument("CEI " + std::to_string(cei.id) +
                                       " has no execution intervals");
      }
      if (!cei_ids.insert(cei.id).second) {
        return Status::InvalidArgument("duplicate CEI id " +
                                       std::to_string(cei.id));
      }
      if (cei.profile != p.id) {
        return Status::InvalidArgument("CEI " + std::to_string(cei.id) +
                                       " profile backlink mismatch");
      }
      if (!IsValidWeight(cei.weight)) {
        return Status::InvalidArgument("CEI " + std::to_string(cei.id) +
                                       " weight must be finite and positive");
      }
      if (cei.required > cei.eis.size()) {
        return Status::InvalidArgument(
            "CEI " + std::to_string(cei.id) +
            " requires more captures than it has EIs");
      }
      for (const ExecutionInterval& ei : cei.eis) {
        if (!ei_ids.insert(ei.id).second) {
          return Status::InvalidArgument("duplicate EI id " +
                                         std::to_string(ei.id));
        }
        if (ei.resource >= num_resources_) {
          return Status::OutOfRange("EI " + std::to_string(ei.id) +
                                    " resource out of range");
        }
        if (ei.start > ei.finish) {
          return Status::InvalidArgument("EI " + std::to_string(ei.id) +
                                         " has start > finish");
        }
        if (ei.start < 0 || ei.finish >= num_chronons_) {
          return Status::OutOfRange("EI " + std::to_string(ei.id) +
                                    " outside the epoch");
        }
      }
      if (cei.arrival < 0 || cei.arrival >= num_chronons_) {
        return Status::OutOfRange("CEI " + std::to_string(cei.id) +
                                  " arrival outside the epoch");
      }
      // The CEI must still be satisfiable when the proxy learns of it:
      // enough EIs must have windows that have not fully passed by arrival.
      size_t failed_at_arrival = 0;
      for (const ExecutionInterval& ei : cei.eis) {
        if (ei.finish < cei.arrival) ++failed_at_arrival;
      }
      if (cei.eis.size() - failed_at_arrival < cei.RequiredCaptures()) {
        return Status::InvalidArgument(
            "CEI " + std::to_string(cei.id) +
            " arrives after too many of its EIs have already expired");
      }
    }
  }
  return Status::OK();
}

std::string ProblemInstance::Summary() const {
  std::ostringstream os;
  os << "ProblemInstance{n=" << num_resources_ << " K=" << num_chronons_
     << " profiles=" << profiles_.size() << " CEIs=" << TotalCeis()
     << " EIs=" << TotalEis() << " rank=" << Rank() << "}";
  return os.str();
}

ProblemBuilder::ProblemBuilder(uint32_t num_resources, Chronon num_chronons,
                               BudgetVector budget)
    : instance_(num_resources, num_chronons, std::move(budget)) {}

ProfileId ProblemBuilder::BeginProfile() {
  Profile p;
  p.id = static_cast<ProfileId>(instance_.mutable_profiles().size());
  instance_.mutable_profiles().push_back(std::move(p));
  has_profile_ = true;
  return instance_.profiles().back().id;
}

StatusOr<CeiId> ProblemBuilder::AddCei(
    const std::vector<std::tuple<ResourceId, Chronon, Chronon>>& eis,
    Chronon arrival, double weight, uint32_t required) {
  if (!has_profile_) {
    return Status::FailedPrecondition("AddCei before BeginProfile");
  }
  if (eis.empty()) {
    return Status::InvalidArgument("CEI needs at least one EI");
  }
  Cei cei;
  cei.id = next_cei_id_++;
  cei.profile = instance_.profiles().back().id;
  cei.weight = weight;
  cei.required = required;
  Chronon earliest = std::get<1>(eis.front());
  for (const auto& [resource, start, finish] : eis) {
    ExecutionInterval ei;
    ei.id = next_ei_id_++;
    ei.resource = resource;
    ei.start = start;
    ei.finish = finish;
    cei.eis.push_back(ei);
    earliest = std::min(earliest, start);
  }
  cei.arrival = (arrival < 0) ? earliest : arrival;
  instance_.mutable_profiles().back().ceis.push_back(std::move(cei));
  return instance_.profiles().back().ceis.back().id;
}

StatusOr<ProblemInstance> ProblemBuilder::Build() {
  WEBMON_RETURN_IF_ERROR(instance_.Validate());
  return std::move(instance_);
}

}  // namespace webmon
