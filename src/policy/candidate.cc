#include "policy/candidate.h"

#include <algorithm>
#include <limits>

namespace webmon {

namespace {

// The state's counters are 32-bit.
uint32_t CheckedCount(size_t n) {
  WEBMON_CHECK_LE(n, std::numeric_limits<uint32_t>::max())
      << "a CEI of " << n << " EIs does not fit CeiState's 32-bit counters";
  return static_cast<uint32_t>(n);
}

}  // namespace

CeiState::CeiState(const Cei* cei_def)
    : cei((WEBMON_CHECK(cei_def != nullptr), cei_def)),
      required_captures(CheckedCount(cei_def->RequiredCaptures())),
      num_eis(CheckedCount(cei_def->eis.size())) {
  if (num_eis > 64) spill_ = std::make_unique<uint64_t[]>(2 * SpillWords());
}

CeiState::CeiState(const CeiState& other)
    : cei(other.cei),
      num_captured(other.num_captured),
      num_failed(other.num_failed),
      required_captures(other.required_captures),
      num_eis(other.num_eis),
      dead(other.dead),
      cancelled(other.cancelled),
      index(other.index),
      admitted_at(other.admitted_at),
      words_{other.words_[0], other.words_[1]} {
  if (other.spill_ != nullptr) {
    const size_t n = 2 * SpillWords();
    spill_ = std::make_unique<uint64_t[]>(n);
    std::copy_n(other.spill_.get(), n, spill_.get());
  }
}

CeiState& CeiState::operator=(const CeiState& other) {
  if (this != &other) *this = CeiState(other);
  return *this;
}

}  // namespace webmon
